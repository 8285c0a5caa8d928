(* Page layout (page_size bytes):

     0 ..  3   magic "TXJP"
     4 .. 19   MD5 digest of bytes [20, page_size)
    20 .. 23   record sequence number (int32 be)
    24 .. 27   page index within the record (int32 be)
    28 .. 31   page count of the record (int32 be)
    32 .. 35   payload bytes used in this page (int32 be)
    36 ..      payload

   A blob page cannot masquerade as a journal page: it would need both the
   magic and a correct MD5 of its own body. *)

let magic = "TXJP"
let header_bytes = 36
let digest_off = 4
let body_off = 20
let payload_capacity = Disk.page_size - header_bytes

type t = {
  pool : Buffer_pool.t;
  (* Guards every mutable field.  Concurrent committers append and sync
     from different domains under group commit. *)
  m : Mutex.t;
  cond : Condition.t;  (* group-commit barrier: synced advanced *)
  mutable next_seq : int;
  mutable records : int;
  mutable pages : int;
  (* Encoded pages of appended-but-not-yet-synced records, oldest first.
     Page ids are allocated at append time (allocation writes nothing),
     the page images land on disk at the next [sync] — strictly in append
     order, which is what makes a torn batch recover to a record
     prefix. *)
  mutable pending : (int * bytes) list;  (* newest first *)
  mutable appended : int;  (* append tickets issued *)
  mutable synced : int;  (* highest ticket known durable *)
  mutable leader : bool;  (* a group-commit leader is collecting a batch *)
  mutable dead : bool;  (* a flush crashed: buffered tickets can never sync *)
}

let create pool =
  {
    pool;
    m = Mutex.create ();
    cond = Condition.create ();
    next_seq = 0;
    records = 0;
    pages = 0;
    pending = [];
    appended = 0;
    synced = 0;
    leader = false;
    dead = false;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let record_count t = locked t @@ fun () -> t.records
let page_count t = locked t @@ fun () -> t.pages
let synced_count t = locked t @@ fun () -> t.synced

let get_i32 page off = Int32.to_int (Bytes.get_int32_be page off)

let encode_page ~seq ~index ~count chunk =
  let page = Bytes.make Disk.page_size '\000' in
  Bytes.blit_string magic 0 page 0 4;
  Bytes.set_int32_be page 20 (Int32.of_int seq);
  Bytes.set_int32_be page 24 (Int32.of_int index);
  Bytes.set_int32_be page 28 (Int32.of_int count);
  Bytes.set_int32_be page 32 (Int32.of_int (String.length chunk));
  Bytes.blit_string chunk 0 page header_bytes (String.length chunk);
  let digest =
    Digest.subbytes page body_off (Disk.page_size - body_off)
  in
  Bytes.blit_string digest 0 page digest_off 16;
  page

(* [None] when the page is not a (whole, untorn) journal page. *)
let decode_page page =
  if Bytes.length page <> Disk.page_size then None
  else if not (String.equal (Bytes.sub_string page 0 4) magic) then None
  else
    let stored = Bytes.sub_string page digest_off 16 in
    let actual = Digest.subbytes page body_off (Disk.page_size - body_off) in
    if not (String.equal stored actual) then None
    else
      let seq = get_i32 page 20 in
      let index = get_i32 page 24 in
      let count = get_i32 page 28 in
      let len = get_i32 page 32 in
      if seq < 0 || count < 1 || index < 0 || index >= count
         || len < 0 || len > payload_capacity
      then None
      else Some (seq, index, count, Bytes.sub_string page header_bytes len)

(* caller holds t.m *)
let append_locked t payload =
  let len = String.length payload in
  if len = 0 then invalid_arg "Journal.append: empty record";
  let count = (len + payload_capacity - 1) / payload_capacity in
  (* The sequence number is consumed up front: should the append crash
     part-way, recovery burns it and the torn record can never complete. *)
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  for index = 0 to count - 1 do
    let off = index * payload_capacity in
    let chunk = String.sub payload off (Stdlib.min payload_capacity (len - off)) in
    let id = Buffer_pool.alloc t.pool in
    t.pages <- t.pages + 1;
    t.pending <- (id, encode_page ~seq ~index ~count chunk) :: t.pending
  done;
  t.records <- t.records + 1;
  t.appended <- t.appended + 1;
  t.appended

(* caller holds t.m.  Writes the batch strictly in append order: a torn
   write leaves every earlier record complete on disk and every later one
   entirely absent — all-or-prefix at record granularity.  One flushed
   batch is one durability point ("fsync"), however many records it
   carries.  On [Disk.Crash] the unwritten tail is dropped: the simulated
   machine is gone, only [recover] runs next. *)
let flush_locked t =
  match t.pending with
  | [] -> ()
  | pending ->
    t.pending <- [];
    let target = t.appended in
    (try
       List.iter
         (fun (id, page) -> Buffer_pool.write t.pool id page)
         (List.rev pending)
     with e ->
       t.dead <- true;
       raise e);
    let stats = Buffer_pool.stats t.pool in
    stats.Io_stats.fsyncs <- stats.Io_stats.fsyncs + 1;
    t.synced <- target

let append_buffered t payload = locked t @@ fun () -> append_locked t payload

let sync t = locked t @@ fun () -> flush_locked t

let append t payload =
  locked t @@ fun () ->
  ignore (append_locked t payload : int);
  flush_locked t

let group_sync t ~sleep ticket =
  Mutex.lock t.m;
  let rec loop () =
    if t.synced >= ticket then ()
    else if t.dead then raise Disk.Crash
    else if t.leader then begin
      (* a leader is collecting: ride its batch *)
      Condition.wait t.cond t.m;
      loop ()
    end
    else begin
      t.leader <- true;
      Mutex.unlock t.m;
      (* Window for other committers to append into the batch.  The lock
         is free while we sleep, so they buffer concurrently. *)
      (try sleep ()
       with e ->
         (* Hand leadership off, but leave the mutex held: re-raising
            unwinds into the outer [Fun.protect], whose finally performs
            the single unlock. *)
         Mutex.lock t.m;
         t.leader <- false;
         Condition.broadcast t.cond;
         raise e);
      Mutex.lock t.m;
      Fun.protect
        ~finally:(fun () ->
          t.leader <- false;
          Condition.broadcast t.cond)
        (fun () -> flush_locked t);
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) loop

(* Tailing cursor.

   Scans the disk for journal pages and yields committed records one at a
   time, in sequence order, remembering where it stopped.  The distinctions
   it draws rest on the flush discipline: pages land on disk strictly in
   append order, so once a {e later} sequence number is complete on disk,
   every page an earlier sequence number will ever have is already there —
   an incomplete earlier record is a burned sequence number ([Tail_gap]),
   never a record still in flight.  Conversely an incomplete record with
   nothing complete beyond it may simply not have been flushed yet
   ([Tail_wait]): more bytes may arrive, or — after a crash — never will.

   Positive page decodes are cached (journal pages are never rewritten),
   and a scan collects every record then complete on disk.  [tail_next]
   therefore serves the next sequence number straight from that cache when
   it is already complete, and rescans only when it is not: every
   [Tail_wait] and [Tail_gap] verdict still follows a fresh scan.  Draining
   a disk thus reads it once plus once per missing sequence number, not
   once per record.  A rescan re-examines the pages that decoded to [None],
   since a freed blob page can be reallocated to the journal later; the
   4-byte magic check rejects non-journal pages before any digest work. *)

type tail = Tail_record of string | Tail_wait | Tail_gap of int

type tailer = {
  tl_pool : Buffer_pool.t;
  tl_seen : (int, unit) Hashtbl.t;  (* page ids known to be journal pages *)
  tl_by_seq : (int, int * string array) Hashtbl.t;  (* undelivered records *)
  mutable tl_page_ids : int list;  (* newest first *)
  mutable tl_pages : int;
  mutable tl_max_seq : int;
  mutable tl_next_seq : int;
}

let tailer pool =
  {
    tl_pool = pool;
    tl_seen = Hashtbl.create 64;
    tl_by_seq = Hashtbl.create 64;
    tl_page_ids = [];
    tl_pages = 0;
    tl_max_seq = -1;
    tl_next_seq = 0;
  }

let tailer_scan tl =
  let n = Buffer_pool.page_count tl.tl_pool in
  for id = 0 to n - 1 do
    if not (Hashtbl.mem tl.tl_seen id) then
      match decode_page (Buffer_pool.read tl.tl_pool id) with
      | None -> ()
      | Some (seq, index, count, chunk) ->
        Hashtbl.replace tl.tl_seen id ();
        tl.tl_page_ids <- id :: tl.tl_page_ids;
        tl.tl_pages <- tl.tl_pages + 1;
        if seq > tl.tl_max_seq then tl.tl_max_seq <- seq;
        if seq >= tl.tl_next_seq then (
          match Hashtbl.find_opt tl.tl_by_seq seq with
          | Some (c, slots) when c = count ->
            if index < Array.length slots then slots.(index) <- chunk
          | Some (_, slots) ->
            (* A digest-valid page disagreeing on the record's shape cannot
               arise from this writer; treat the record as unreadable. *)
            Hashtbl.replace tl.tl_by_seq seq (-1, slots)
          | None ->
            let slots = Array.make count "" in
            slots.(index) <- chunk;
            Hashtbl.replace tl.tl_by_seq seq (count, slots))
  done

(* every page present?  (the empty string cannot occur as a chunk of a
   committed record: all chunks but possibly none are non-empty, and a
   record is non-empty) *)
let tailer_complete (c, slots) = c > 0 && Array.for_all (fun s -> s <> "") slots

let tail_next tl =
  let seq = tl.tl_next_seq in
  let next_entry () = Hashtbl.find_opt tl.tl_by_seq seq in
  if not (Option.fold ~none:false ~some:tailer_complete (next_entry ())) then
    tailer_scan tl;
  match next_entry () with
  | Some ((_, slots) as entry) when tailer_complete entry ->
    tl.tl_next_seq <- seq + 1;
    Hashtbl.remove tl.tl_by_seq seq;
    Tail_record (String.concat "" (Array.to_list slots))
  | _ ->
    let beyond =
      Hashtbl.fold
        (fun s entry acc -> acc || (s > seq && tailer_complete entry))
        tl.tl_by_seq false
    in
    if beyond then begin
      tl.tl_next_seq <- seq + 1;
      Hashtbl.remove tl.tl_by_seq seq;
      Tail_gap seq
    end
    else Tail_wait

let tailer_position tl = tl.tl_next_seq

type recovery = {
  journal : t;
  records : string list;
  journal_pages : int list;
}

let recover pool =
  let tl = tailer pool in
  let records = ref [] in
  let committed = ref 0 in
  let rec drain () =
    match tail_next tl with
    | Tail_record r ->
      records := r :: !records;
      incr committed;
      drain ()
    | Tail_gap _ -> drain () (* burned sequence number: the append never completed *)
    | Tail_wait -> ()
  in
  drain ();
  let journal =
    {
      pool;
      m = Mutex.create ();
      cond = Condition.create ();
      next_seq = tl.tl_max_seq + 1;
      records = !committed;
      pages = tl.tl_pages;
      pending = [];
      appended = !committed;
      synced = !committed;
      leader = false;
      dead = false;
    }
  in
  {
    journal;
    records = List.rev !records;
    journal_pages = List.sort compare tl.tl_page_ids;
  }
