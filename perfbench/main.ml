(* The repository benchmark: one workload, one seed, one run.

   Loads the workload's corpus, starts Txq_server.Server in-process the way
   [txmldbd serve] configures it, drives it over real sockets with a closed
   loop of two clients, checks every result, and prints every metric by
   name.  With [--trace 1] it instead reports per-layer numbers, measured
   from outside the program by timing calls into each layer's public
   functions.  See README.md in this directory. *)

module Db = Txq_db.Db
module Config = Txq_db.Config
module Docstore = Txq_db.Docstore
module Server = Txq_server.Server
module Client = Txq_server.Client
module P = Txq_server.Protocol
module Load = Txq_workload.Load
module Io = Txq_store.Io_stats
module Disk = Txq_store.Disk
module Print = Txq_xml.Print
module Parse = Txq_xml.Parse
module Exec = Txq_query.Exec
module Parser = Txq_query.Parser
module Rewrite = Txq_query.Rewrite
module Vnode = Txq_vxml.Vnode
module Fti = Txq_fti.Fti
module Metrics = Txq_obs.Metrics

(* Every txmldbd caller waits for its reply, so the load is a closed loop;
   two clients, one per core of the reference machine. *)
let clients = 2
let config = Config.durable Config.default
let server_config = { Server.default_config with Server.readers = clients }
let setups = 3
let pings = 200
(* The read-only workloads send their write probe to [write_primaries]
   primaries, one after the other, 2 x 500 acknowledged writes each: the
   fewest that leave 10 samples beyond one primary's write p99 (see
   [share_p99]).  Every other primary is caught up by a replica, the last
   one included. *)
let write_primaries = 6
let write_probe_per_client = 500
let now = Unix.gettimeofday

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- spans ----------------------------------------------------------------- *)

(* One span per call into a layer, kept in memory per domain and written out
   when the run ends.  [sp_req] names the request a span belongs to:
   [wire/<phase>/<client>/<n>] and [replay/<phase>/<client>/<n>], where
   phase 1 is the window and 2 the write probe, or [ship/<pull>]. *)
type span = {
  sp_req : string;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_attrs : (string * float) list;
}

let span_json s =
  Printf.sprintf {|{"req":%S,"name":%S,"start_us":%.3f,"dur_us":%.3f%s}|}
    s.sp_req s.sp_name (s.sp_start *. 1e6) ((s.sp_end -. s.sp_start) *. 1e6)
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf {|,%S:%.17g|} k v) s.sp_attrs))

(* --- failures and checks --------------------------------------------------- *)

(* Failed checks; in-process replay domains report here too. *)
let problems = ref []
let problems_mu = Mutex.create ()

let problem fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.protect problems_mu (fun () -> problems := s :: !problems);
      log "CHECK FAILED: %s" s)
    fmt

(* --- client driving -------------------------------------------------------- *)

type ack = Present of string | Deleted

type record = {
  r_op : Gen.op;
  r_t0 : float;
  r_t1 : float;
  r_ok : bool;
  r_rows : int;
  r_bytes : int;
  r_digest : Digest.t;  (* of the reply body; reads only *)
}

type tally = {
  mutable records : record list;  (* newest first *)
  mutable attempted : int;  (* ops issued plus ops a dead client never issued *)
  mutable failed : int;  (* error replies, disconnects, ops never issued *)
  mutable first_error : string option;
  acked : (string, ack) Hashtbl.t;  (* last acknowledged write per URL *)
  mutable committed_bytes : int;  (* printed bytes of acknowledged versions *)
}

let new_tally () =
  { records = []; attempted = 0; failed = 0; first_error = None;
    acked = Hashtbl.create 64; committed_bytes = 0 }

let note_failure t n msg =
  t.failed <- t.failed + n;
  if t.first_error = None then t.first_error <- Some msg

let request_of = function
  | Gen.Read s -> P.Query s
  | Gen.Insert (url, p) -> P.Insert (url, p)
  | Gen.Update (url, p) -> P.Update (url, p)
  | Gen.Delete url -> P.Delete url

let acknowledge t = function
  | Gen.Read _ -> ()
  | Gen.Insert (url, p) | Gen.Update (url, p) ->
    Hashtbl.replace t.acked url (Present p);
    t.committed_bytes <- t.committed_bytes + String.length p
  | Gen.Delete url -> Hashtbl.replace t.acked url Deleted

type until = Deadline of float | Count of int

let add_record t op ~t0 ~ok ?(rows = 0) ?(body = "") () =
  let t1 = now () in
  let digest = if ok && not (Gen.is_write op) then Digest.string body else "" in
  t.records <-
    { r_op = op; r_t0 = t0; r_t1 = t1; r_ok = ok; r_rows = rows;
      r_bytes = String.length body; r_digest = digest }
    :: t.records

(* One client: a connection and a closed loop over its op stream.  A client
   whose connection dies stops; the ops it would still have issued count as
   attempted and failed (estimated from its own rate in a timed loop). *)
let drive ~port ~next ~until t =
  let start = now () in
  let more () =
    match until with Deadline d -> now () < d | Count n -> t.attempted < n
  in
  let died msg =
    let never_issued =
      match until with
      | Count n -> n - t.attempted
      | Deadline d ->
        let left = d -. now () in
        if left <= 0.0 then 0
        else
          let rate = float_of_int t.attempted /. Float.max 1e-3 (now () -. start) in
          Stdlib.max 1 (int_of_float (Float.ceil (rate *. left)))
    in
    t.attempted <- t.attempted + never_issued;
    note_failure t never_issued msg
  in
  match Client.connect ~port () with
  | exception e -> died ("connect: " ^ Printexc.to_string e)
  | conn ->
    let rec loop () =
      if more () then begin
        let op = next () in
        let req = request_of op in
        t.attempted <- t.attempted + 1;
        let t0 = now () in
        match Client.request conn req with
        | Ok reply ->
          add_record t op ~t0 ~ok:true ~rows:reply.Client.rows ~body:reply.Client.body ();
          acknowledge t op;
          loop ()
        | Error (code, msg) ->
          add_record t op ~t0 ~ok:false ();
          note_failure t 1 (Printf.sprintf "error %d on %s: %s" code (Gen.to_string op) msg);
          loop ()
        | exception Client.Disconnected ->
          add_record t op ~t0 ~ok:false ();
          note_failure t 1 ("disconnected on " ^ Gen.to_string op);
          died "client died"
      end
    in
    (try loop () with e -> died ("client: " ^ Printexc.to_string e));
    Client.close conn

(* Runs one client per domain (as Server's reader pool serves them) and
   returns the tallies and the phase's start time. *)
let run_clients ~port ~streams ~until =
  let t0 = now () in
  let until = match until with `Seconds s -> Deadline (t0 +. s) | `Count n -> Count n in
  let doms =
    List.map
      (fun next ->
        Domain.spawn (fun () ->
            let t = new_tally () in
            drive ~port ~next ~until t;
            t))
      streams
  in
  let tallies = List.map Domain.join doms in
  (tallies, t0)

(* --- statistics ------------------------------------------------------------ *)

(* Nearest-rank percentile of a sorted array, and how many samples lie
   beyond it. *)
let rank sorted p =
  Stdlib.max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int (Array.length sorted))) - 1)

let percentile sorted p =
  if Array.length sorted = 0 then Float.nan else sorted.(rank sorted p)

let beyond sorted p = Array.length sorted - 1 - rank sorted p

(* Harrell-Davis estimate of the p-th percentile of a sorted array: a
   weighted mean of every order statistic, the weights a beta density
   centred on the p-th rank, integrated by midpoints over each rank's
   share.  A nearest-rank percentile is a single order statistic.  The
   write p99 of 1,000 samples lies where the ~1 % of commits that stall
   begin, so a nearest-rank p99 jumps between the stalled and the
   unstalled population as one stall more or less crosses it; this
   estimate moves smoothly with them. *)
let hd_percentile sorted p =
  let n = Array.length sorted in
  if n < 2 then percentile sorted p
  else begin
    let q = p /. 100.0 and n1 = float_of_int (n + 1) in
    let a = q *. n1 and b = (1.0 -. q) *. n1 in
    let sub = 4 in
    let m = float_of_int (n * sub) in
    let log_w = Array.init (n * sub) (fun j ->
        let t = (float_of_int j +. 0.5) /. m in
        ((a -. 1.0) *. Float.log t) +. ((b -. 1.0) *. Float.log (1.0 -. t)))
    in
    let top = Array.fold_left Float.max neg_infinity log_w in
    let sum = ref 0.0 and weight = ref 0.0 in
    Array.iteri
      (fun j l ->
        let w = exp (l -. top) in
        sum := !sum +. (w *. sorted.(j / sub));
        weight := !weight +. w)
      log_w;
    !sum /. !weight
  end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let latency_ms r = (r.r_t1 -. r.r_t0) *. 1e3

(* Completed ops of one class. *)
let completed ~write tallies =
  List.concat_map
    (fun t -> List.filter (fun r -> r.r_ok && Gen.is_write r.r_op = write) t.records)
    tallies

let sorted_latencies records =
  let a = Array.of_list (List.map latency_ms records) in
  Array.sort Float.compare a;
  a

(* The window runs in [stretches] stretches.  On the read-only workloads a
   chunk of the write probe follows each stretch, so reads and writes are
   sampled across the same stretch of time: the machine's speed drifts
   within seconds, and a figure sampled over one short burst would carry
   that drift whole.  Each write primary takes [chunks_per_primary]
   chunks in a row. *)
let stretches = 30
let chunks_per_primary = stretches / write_primaries

(* Completed ops per second over the timed part of every stretch. *)
let window_rate stretch_results ~seconds =
  let n =
    List.fold_left
      (fun n (tallies, start) ->
        List.fold_left
          (fun n t ->
            n
            + List.length
                (List.filter (fun r -> r.r_ok && r.r_t1 >= start && r.r_t1 < start +. seconds) t.records))
          n tallies)
      0 stretch_results
  in
  float_of_int n /. (seconds *. float_of_int (List.length stretch_results))

(* A p99 that a stall of the host cannot set alone: the median of the p99s
   of the run's shares, each share a stretch of the run with at least
   1,000 samples, so that 10 lie beyond each p99.  Pooled, a run's p99 is
   set by whichever seconds met a stall of the host, since the slowest 1 %
   of all samples can come from one such stretch.  A stall of the program
   recurs in every share and moves the median. *)
let share_p99s shares = List.map (fun l -> hd_percentile (sorted_latencies l) 99.0) shares
let share_p99 shares = median (share_p99s shares)

(* One class of the window's completed ops, in up to [write_primaries]
   shares of consecutive stretches with about 1,000 ops or more each. *)
let window_shares ~write windows =
  let per_stretch = List.map (fun (tallies, _) -> completed ~write tallies) windows in
  let n = List.fold_left (fun n l -> n + List.length l) 0 per_stretch in
  let g = Stdlib.max 1 (Stdlib.min write_primaries (n / 1000)) in
  let shares = Array.make g [] in
  List.iteri (fun i l -> shares.(i * g / stretches) <- l @ shares.(i * g / stretches)) per_stretch;
  Array.to_list shares

(* Repeats a measurement up to nine times within about six seconds and
   returns the last result with the mean time: short measurements get
   several samples, recovery of a long journal one.  The mean, unlike the
   median, averages over the machine's drift.  [prepare] makes each
   repeat's input and is not timed.  Each repeat starts on a compacted
   heap, so no sample collects the garbage of the one before. *)
let repeat_timed ~prepare f =
  let rec go acc spent =
    let input = prepare () in
    Gc.compact ();
    let t0 = now () in
    let r = f input in
    let dt = now () -. t0 in
    let acc = dt :: acc and spent = spent +. dt in
    if List.length acc >= 9 || spent +. dt > 6.0 then (r, mean acc, List.length acc)
    else go acc spent
  in
  go [] 0.0


(* --- content checks ---------------------------------------------------------- *)

let current_content db url =
  Option.map
    (fun d -> Print.to_string (Vnode.to_xml (Docstore.current d)))
    (Db.find_live db url)

let urls db =
  List.sort_uniq String.compare
    (List.map (fun id -> Docstore.url (Db.doc db id)) (Db.doc_ids db))

(* Every URL's current content and version count must agree. *)
let same_content ~what ~expected db =
  if Db.document_count db <> Db.document_count expected then
    problem "%s: %d documents, primary has %d" what (Db.document_count db)
      (Db.document_count expected);
  List.iter
    (fun url ->
      let versions d = Option.map Docstore.version_count (Db.find_live d url) in
      if current_content db url <> current_content expected url
         || versions db <> versions expected
      then problem "%s: %s differs from the primary" what url)
    (urls expected)

let check_acked ~what db tallies =
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun url ack ->
          match (ack, current_content db url) with
          | Deleted, None -> ()
          | Deleted, Some _ -> problem "%s: acknowledged delete of %s is missing" what url
          | Present _, None -> problem "%s: acknowledged write of %s is missing" what url
          | Present p, Some c ->
            if not (String.equal c (Print.to_string (Parse.parse_exn p))) then
              problem "%s: %s does not hold its acknowledged content" what url)
        t.acked)
    tallies

(* Reads of the unchanged corpus must match the in-process result byte for
   byte; the expected result is computed once per distinct statement. *)
let check_reads db tallies =
  let expected = Hashtbl.create 256 in
  let checked = ref 0 in
  List.iter
    (fun t ->
      List.iter
        (fun r ->
          match r.r_op with
          | Gen.Read s when r.r_ok ->
            let want =
              match Hashtbl.find_opt expected s with
              | Some d -> d
              | None ->
                let d =
                  match Exec.run_string db s with
                  | Ok xml -> Some (Digest.string (Print.to_string xml))
                  | Error _ -> None
                in
                Hashtbl.replace expected s d;
                d
            in
            incr checked;
            if want <> Some r.r_digest then problem "wrong result for %s" s
          | _ -> ())
        t.records)
    tallies;
  (!checked, Hashtbl.length expected)

(* --- corpus ---------------------------------------------------------------- *)

type corpus = {
  c_documents : int;
  c_versions : int;
  c_printed_bytes : int;  (* printed XML of every version *)
  c_materialized_bytes : int;  (* Vnode.approx_bytes of every version *)
  c_pages : int;
}

let measure_corpus db =
  let versions = ref 0 and printed = ref 0 and materialized = ref 0 in
  List.iter
    (fun id ->
      for v = 0 to Docstore.version_count (Db.doc db id) - 1 do
        let tree = Db.reconstruct db id v in
        incr versions;
        materialized := !materialized + Vnode.approx_bytes tree;
        printed := !printed + String.length (Print.to_string (Vnode.to_xml tree))
      done)
    (Db.doc_ids db);
  Db.flush_cache db;
  { c_documents = Db.document_count db; c_versions = !versions;
    c_printed_bytes = !printed; c_materialized_bytes = !materialized;
    c_pages = Disk.page_count (Db.disk db) }

(* --- set-up ---------------------------------------------------------------- *)

(* Corpus load plus Server.start, up to the first answered ping. *)
let setup spec =
  let t0 = now () in
  let db = Load.load_db ~config spec in
  let server = Server.start ~config:server_config db in
  let c = Client.connect ~port:(Server.port server) () in
  let ok = Client.ping c in
  let dt = now () -. t0 in
  Client.close c;
  if not ok then failwith "set-up: the server did not answer PING";
  (db, server, dt)

let stop_server server =
  let leaked = Server.stop server in
  if leaked <> 0 then problem "Server.stop reported %d leaked snapshot pins" leaked

(* --- warm-up --------------------------------------------------------------- *)

let warm_batch = 100

let ratio hits misses =
  if hits + misses = 0 then 1.0 else float_of_int hits /. float_of_int (hits + misses)

(* One tally per client out of per-batch tallies, oldest batch first. *)
let merge_batches batches =
  List.mapi
    (fun i _ ->
      let mine = List.map (fun b -> List.nth b i) batches in
      let t = new_tally () in
      List.iter
        (fun b ->
          t.records <- b.records @ t.records;
          t.attempted <- t.attempted + b.attempted;
          t.failed <- t.failed + b.failed;
          if t.first_error = None then t.first_error <- b.first_error;
          Hashtbl.iter (Hashtbl.replace t.acked) b.acked;
          t.committed_bytes <- t.committed_bytes + b.committed_bytes)
        mine;
      t)
    (List.hd batches)

(* read_hot warms until its hit ratios are steady; history_cold until the
   version cache is full and evicting; mixed_durable runs one batch (its
   writes grow the journal that recovery replays). *)
let warm_up workload db ~port ~streams =
  let io = Db.io_stats db in
  let budget = (Db.config db).Config.version_cache_bytes in
  let rec go batches prev acc =
    let before = Io.copy io in
    let tallies, _ = run_clients ~port ~streams ~until:(`Count warm_batch) in
    let d = Io.diff ~after:io ~before in
    let vc = ratio d.Io.vcache_hits d.Io.vcache_misses
    and pool = ratio d.Io.cache_hits d.Io.cache_misses in
    let acc = tallies :: acc in
    let steady =
      match (workload, prev) with
      | Gen.Mixed_durable, _ -> true
      | Gen.Read_hot, Some (pvc, ppool) ->
        Float.abs (vc -. pvc) < 0.01 && Float.abs (pool -. ppool) < 0.01
      | Gen.Read_hot, None -> false
      | Gen.History_cold, _ ->
        io.Io.vcache_bytes >= budget * 9 / 10 && d.Io.vcache_misses > 0
    in
    if steady || batches >= 30 then (batches, vc, pool, merge_batches (List.rev acc))
    else go (batches + 1) (Some (vc, pool)) acc
  in
  go 1 None []

(* --- replica catch-up and recovery ------------------------------------------- *)

(* A copy of a disk image.  Recovery allocates its rebuilt indexes on the
   disk it recovers, so it runs on a copy: the primary's disk, which
   space_amp measures, stays as the writes left it, and every repeat
   recovers the same image. *)
let copy_disk d =
  let c = Disk.create () in
  for i = 0 to Disk.page_count d - 1 do
    Disk.write c (Disk.alloc c) (Disk.read d i)
  done;
  c

(* A fresh replica pulls SHIP batches until it reaches the primary's durable
   watermark. *)
let catch_up ~port ~spans =
  let conn = Client.connect ~port () in
  let rp = Db.Replay.create ~config () in
  let pulls = ref 0 in
  spans := [];
  let rec pull () =
    let from = Db.Replay.applied rp in
    let p0 = now () in
    match Client.ship conn ~from () with
    | Error (code, msg) -> failwith (Printf.sprintf "SHIP error %d: %s" code msg)
    | Ok (shipments, reply) ->
      let p1 = now () in
      incr pulls;
      spans := { sp_req = Printf.sprintf "ship/%d" !pulls; sp_name = "ship.pull"; sp_start = p0; sp_end = p1;
                 sp_attrs = [ ("records", float_of_int (List.length shipments)) ] }
               :: !spans;
      List.iter
        (fun sh ->
          let a0 = now () in
          Db.Replay.apply rp sh;
          spans := { sp_req = Printf.sprintf "ship/%d" !pulls; sp_name = "replay.apply"; sp_start = a0;
                     sp_end = now (); sp_attrs = [] } :: !spans)
        shipments;
      let applied = Db.Replay.applied rp in
      if applied < reply.Client.watermark then
        if shipments = [] then failwith "SHIP made no progress below the watermark"
        else pull ()
  in
  pull ();
  Client.close conn;
  Db.Replay.db rp

(* --- in-process replay (traced run) ------------------------------------------ *)

(* The calls Server makes for each request, in the same order.  With
   [spans = Some l] each call is timed from outside and recorded in [l];
   with [None] the calls run bare, as the baseline of the tracing
   overhead. *)
let replay_op db ~req spans op =
  let timed name ?(attrs = fun _ -> []) f =
    match spans with
    | None -> f ()
    | Some l ->
      let t0 = now () in
      let r = f () in
      l := { sp_req = req; sp_name = name; sp_start = t0; sp_end = now (); sp_attrs = attrs r } :: !l;
      r
  in
  timed "request" @@ fun () ->
  match op with
  | Gen.Read s -> (
    let stmt =
      match timed "query.parse" (fun () -> Parser.parse_statement s) with
      | Ok stmt -> stmt
      | Error e -> failwith ("parse: " ^ e)
    in
    let snap = timed "db.snapshot" (fun () -> Db.snapshot db) in
    Fun.protect ~finally:(fun () -> timed "db.release" (fun () -> Db.release snap))
    @@ fun () ->
    let stmt = timed "query.rewrite" (fun () -> Rewrite.statement ~now:(Db.now snap) stmt) in
    let buf = Buffer.create 1024 and print_s = ref 0.0 in
    let on_row xml =
      match spans with
      | None -> Buffer.add_string buf (Print.to_string xml)
      | Some _ ->
        let t0 = now () in
        Buffer.add_string buf (Print.to_string xml);
        print_s := !print_s +. (now () -. t0)
    in
    let attrs = function
      | Ok rows -> [ ("rows", float_of_int rows); ("print_us", !print_s *. 1e6) ]
      | Error _ -> []
    in
    match timed "query.exec" ~attrs (fun () -> Exec.stream_statement snap stmt ~on_row) with
    | Ok _ -> ()
    | Error e -> failwith (Exec.error_to_string e))
  | Gen.Insert (url, p) | Gen.Update (url, p) ->
    let xml = timed "xml.parse" (fun () -> Parse.parse_exn p) in
    timed "db.commit" (fun () ->
        match op with
        | Gen.Insert _ -> ignore (Db.insert_document db ~url xml)
        | _ -> ignore (Db.update_document db ~url xml))
  | Gen.Delete url -> timed "db.commit" (fun () -> Db.delete_document db ~url ())

(* Replays each client's issued ops on its own domain.  Returns the phase's
   wall time and the spans recorded. *)
let replay_clients db ~traced ~phase op_lists =
  let t0 = now () in
  let doms =
    List.mapi
      (fun i ops ->
        Domain.spawn (fun () ->
            let spans = if traced then Some (ref []) else None in
            List.iteri
              (fun j op ->
                try replay_op db ~req:(Printf.sprintf "replay/%d/%d/%d" phase i j) spans op
                with e ->
                  problem "in-process replay of %s: %s" (Gen.to_string op)
                    (Printexc.to_string e))
              ops;
            match spans with Some l -> !l | None -> []))
      op_lists
  in
  let spans = List.concat_map Domain.join doms in
  (now () -. t0, spans)

(* The ops a client completed over the wire, in issue order. *)
let ops_of tally =
  List.rev (List.filter_map (fun r -> if r.r_ok then Some r.r_op else None) tally.records)

(* --- output ---------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metric_json (name, unit, v) =
  Printf.sprintf {|%S: {"value": %s, "unit": %S}|} name (json_num v) unit

(* Prints the result line and returns whether every check passed. *)
let print_result ~attempted ~failed metrics =
  List.iter
    (fun (n, _, v) -> if not (Float.is_finite v) then problem "%s has no samples" n)
    metrics;
  let correct = !problems = [] in
  List.iter (fun (n, u, v) -> Printf.printf "%-32s %16.6f %s\n" n v u) metrics;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics));
  print_newline ();
  correct

type args = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
  commit : string;
  source_digest : string;
}

(* The traced run: the wire phase above already has a span per
   Client.request; replay the same ops in-process twice, on fresh stores
   warmed by the same ops, once bare and once with a span around each layer
   call, and read the counters at the phase boundaries. *)
let traced_metrics a ~spec ~ping_us ~warm_tallies ~tallies ~probe_tallies
    ~ship_spans ~recover_s ~records =
  let warm_ops = List.map ops_of warm_tallies in
  let phases = [ List.map ops_of tallies; List.map ops_of probe_tallies ] in
  let fresh () =
    let db = Load.load_db ~config spec in
    ignore (replay_clients db ~traced:false ~phase:0 warm_ops);
    db
  in
  let bare = fresh () and db = fresh () in
  let io = Db.io_stats db in
  let bare_pass ops =
    Gc.full_major ();
    fst (replay_clients bare ~traced:false ~phase:0 ops)
  in
  let traced_pass i ops =
    Gc.full_major ();
    let before = Io.copy io in
    let tasks0 = Option.value ~default:0 (Metrics.counter_value "dpool.tasks") in
    let dt, spans = replay_clients db ~traced:true ~phase:(i + 1) ops in
    let tasks = Option.value ~default:0 (Metrics.counter_value "dpool.tasks") - tasks0 in
    (dt, spans, Io.diff ~after:io ~before, tasks)
  in
  (* alternate which pass goes first, so neither always runs second *)
  let bare_s = ref 0.0 in
  let phase_runs =
    List.mapi
      (fun i ops ->
        if i mod 2 = 0 then begin
          bare_s := !bare_s +. bare_pass ops;
          traced_pass i ops
        end
        else begin
          let r = traced_pass i ops in
          bare_s := !bare_s +. bare_pass ops;
          r
        end)
      phases
  in
  let bare_s = !bare_s in
  let traced_s = List.fold_left (fun s (dt, _, _, _) -> s +. dt) 0.0 phase_runs in
  let spans = List.concat_map (fun (_, s, _, _) -> s) phase_runs in
  (* every read runs in the window phase; commits also in the probe phase *)
  let _, _, read_io, tasks = List.hd phase_runs in
  let io_total = Io.create () in
  List.iter (fun (_, _, d, _) -> Io.add io_total d) phase_runs;
  let named n = List.filter (fun s -> String.equal s.sp_name n) spans in
  let dur_us s = (s.sp_end -. s.sp_start) *. 1e6 in
  let attr k s = Option.value ~default:0.0 (List.assoc_opt k s.sp_attrs) in
  let mean_dur n = mean (List.map dur_us (named n)) in
  let execs = named "query.exec" in
  let n_reads = List.length execs in
  let n_commits = List.length (named "db.commit") in
  let per_read x = float_of_int x /. float_of_int (Stdlib.max 1 n_reads) in
  let per_commit x = float_of_int x /. float_of_int (Stdlib.max 1 n_commits) in
  let wire = List.concat_map (fun t -> List.filter (fun r -> r.r_ok) t.records) (tallies @ probe_tallies) in
  let wire_reads = List.filter (fun r -> not (Gen.is_write r.r_op)) wire in
  let wire_mean_us = mean (List.map (fun r -> (r.r_t1 -. r.r_t0) *. 1e6) wire) in
  let ship_pulls = List.filter (fun s -> String.equal s.sp_name "ship.pull") ship_spans in
  let stats = Db.stats db in
  let fti = Db.fti db in
  let wire_spans =
    List.concat
      (List.mapi
         (fun phase ts ->
           List.concat
             (List.mapi
                (fun c t ->
                  List.mapi
                    (fun n r ->
                      { sp_req = Printf.sprintf "wire/%d/%d/%d" (phase + 1) c n;
                        sp_name = "wire.request"; sp_start = r.r_t0; sp_end = r.r_t1;
                        sp_attrs =
                          [ ("ok", if r.r_ok then 1.0 else 0.0);
                            ("bytes", float_of_int r.r_bytes);
                            ("rows", float_of_int r.r_rows) ] })
                    (List.rev t.records))
                ts))
         [ tallies; probe_tallies ])
  in
  (* spans stay in memory until here *)
  let path =
    Filename.concat a.out_dir
      (Printf.sprintf "trace-%s-%d.jsonl" (Gen.name a.workload) a.seed)
  in
  (try
     let oc = open_out path in
     List.iter
       (fun s -> output_string oc (span_json s); output_char oc '\n')
       (wire_spans @ ship_spans @ spans);
     Printf.fprintf oc
       {|{"summary":{"db.commits":%d,"db.deltas_read":%d,"db.reconstructions":%d,"db.reconstruct_cache_hits":%d,"io":{%s}}}|}
       stats.Db.commits stats.Db.deltas_read stats.Db.reconstructions
       stats.Db.reconstruct_cache_hits
       (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) (Io.fields io_total)));
     output_char oc '\n';
     close_out oc;
     log "spans written to %s" path
   with Sys_error e -> log "could not write spans: %s" e);
  [ ("server.ping_us", "us", ping_us);
    ("server.wire_us", "us", wire_mean_us -. mean_dur "request");
    ("server.reply_bytes", "bytes", mean (List.map (fun r -> float_of_int r.r_bytes) wire_reads));
    ("query.parse_us", "us", mean_dur "query.parse");
    ("query.rewrite_us", "us", mean_dur "query.rewrite");
    ("query.exec_us", "us", mean (List.map (fun s -> dur_us s -. attr "print_us" s) execs));
    ("query.rows", "count", mean (List.map (attr "rows") execs));
    ("xml.print_us", "us", mean (List.map (attr "print_us") execs));
    ("xml.parse_us", "us", mean_dur "xml.parse");
    ("db.snapshot_us", "us", mean_dur "db.snapshot" +. mean_dur "db.release");
    ("db.commit_us", "us", mean_dur "db.commit");
    ("db.vcache_hit_ratio", "ratio", ratio read_io.Io.vcache_hits read_io.Io.vcache_misses);
    ("db.deltas_applied_per_read", "count", per_read read_io.Io.deltas_applied);
    ("store.pool_hit_ratio", "ratio", ratio read_io.Io.cache_hits read_io.Io.cache_misses);
    ("store.page_reads_per_read", "count", per_read read_io.Io.page_reads);
    ("store.seeks_per_read", "count", per_read read_io.Io.seeks);
    ("store.page_writes_per_commit", "count", per_commit io_total.Io.page_writes);
    ("store.fsyncs_per_commit", "count", per_commit io_total.Io.fsyncs);
    ("fti.postings", "count", float_of_int (Fti.posting_count fti));
    ("fti.freezes_per_1k_commits", "count",
     1000.0 *. float_of_int (Fti.freeze_count fti) /. float_of_int (Stdlib.max 1 stats.Db.commits));
    ("core.dpool_tasks_per_read", "count", per_read tasks);
    ("ship.pull_us", "us", mean (List.map dur_us ship_pulls));
    ("ship.records_per_pull", "count", mean (List.map (attr "records") ship_pulls));
    ("replay.apply_us", "us",
     mean (List.map dur_us (List.filter (fun s -> String.equal s.sp_name "replay.apply") ship_spans)));
    ("recover.us_per_record", "us", recover_s *. 1e6 /. float_of_int (Stdlib.max 1 records));
    ("trace.overhead_frac", "fraction", (traced_s -. bare_s) /. bare_s) ]

(* --- the run --------------------------------------------------------------- *)

(* A write primary of the read-only workloads while it takes its chunks of
   the write probe, and what it leaves once finished. *)
type write_primary = {
  w_db : Db.t;
  w_server : Server.t;
  w_streams : (unit -> Gen.op) list;
  mutable w_chunks : tally list list;  (* newest first *)
}

type written = {
  wr_tallies : tally list;
  wr_catchup_s : float option;
  wr_space_amp : float;
}

(* Disk bytes over the printed bytes of every committed version: the corpus
   plus the acknowledged writes. *)
let space_amp db ~corpus tallies =
  let committed = corpus.c_printed_bytes + List.fold_left (fun n t -> n + t.committed_bytes) 0 tallies in
  float_of_int (Disk.page_count (Db.disk db) * Disk.page_size) /. float_of_int committed

let run a =
  let spec = Gen.spec a.workload in
  let reads_only = a.workload <> Gen.Mixed_durable in
  (* set-up, several times; with the write primaries' set-ups, its median
     is setup_s *)
  let n_setups = if a.trace then 1 else setups in
  let rec do_setups i acc =
    let db, server, dt = setup spec in
    if i = n_setups then ((db, server), List.rev (dt :: acc))
    else begin
      stop_server server;
      do_setups (i + 1) (dt :: acc)
    end
  in
  let (db, server), setup_times = do_setups 1 [] in
  let port = Server.port server in
  let corpus = measure_corpus db in
  (* PING round trips: framing and socket, no database work *)
  let ping_us =
    let c = Client.connect ~port () in
    let l =
      List.init pings (fun _ ->
          let t0 = now () in
          if not (Client.ping c) then problem "PING unanswered";
          (now () -. t0) *. 1e6)
    in
    Client.close c;
    median l
  in
  let stream c = Gen.stream a.workload ~seed:a.seed ~client:c in
  let warm_batches, warm_vc, warm_pool, warm_tallies =
    warm_up a.workload db ~port ~streams:[ stream 2; stream 3 ]
  in
  log "%s seed %d: warmed in %d batches (vcache hit %.3f, pool hit %.3f, vcache %d bytes)"
    (Gen.name a.workload) a.seed warm_batches warm_vc warm_pool (Db.io_stats db).Io.vcache_bytes;
  (* The read-only workloads write on [write_primaries] further primaries,
     each loaded with the same corpus and started the same way, one after
     the other, so the reads of the window see the unchanged corpus while
     the probe's writes are spread across it.  mixed_durable writes on its
     one primary. *)
  let write_setups = ref [] in
  let start_write_primary k =
    let wdb, wserver, dt = setup spec in
    write_setups := dt :: !write_setups;
    let streams =
      List.map (fun c -> Gen.write_stream a.workload ~seed:a.seed ~client:c)
        [ 4 + (2 * k); 5 + (2 * k) ]
    in
    { w_db = wdb; w_server = wserver; w_streams = streams; w_chunks = [] }
  in
  let ship_spans = ref [] in
  (* Write primary [k] took its last chunk: its writes are checked on it
     and, on every other primary, on a replica that catches up with it
     once, timed; then its server stops.  The last one's store is kept
     for recovery. *)
  let finish k w =
    let tallies = merge_batches (List.rev w.w_chunks) in
    check_acked ~what:"write primary" w.w_db tallies;
    let catchup_s =
      if k mod 2 = 0 then None
      else begin
        Gc.compact ();
        let t0 = now () in
        let replica = catch_up ~port:(Server.port w.w_server) ~spans:ship_spans in
        let dt = now () -. t0 in
        same_content ~what:"replica" ~expected:w.w_db replica;
        check_acked ~what:"replica" replica tallies;
        Some dt
      end
    in
    stop_server w.w_server;
    { wr_tallies = tallies; wr_catchup_s = catchup_s;
      wr_space_amp = space_amp w.w_db ~corpus tallies }
  in
  let write_primary = ref (if reads_only then Some (start_write_primary 0) else None) in
  let written = ref [] and last_wdb = ref db in
  (* the timed window, starting without the garbage of the discarded
     set-ups and of the warm-up *)
  Gc.compact ();
  let io_before = Io.copy (Db.io_stats db) in
  let read_streams = [ stream 0; stream 1 ] and stretch_s = a.seconds /. float_of_int stretches in
  let windows =
    List.init stretches (fun i ->
        let window = run_clients ~port ~streams:read_streams ~until:(`Seconds stretch_s) in
        Option.iter
          (fun w ->
            let chunk, _ =
              run_clients ~port:(Server.port w.w_server) ~streams:w.w_streams
                ~until:(`Count (write_probe_per_client / chunks_per_primary))
            in
            w.w_chunks <- chunk :: w.w_chunks;
            if (i + 1) mod chunks_per_primary = 0 then begin
              let k = i / chunks_per_primary in
              written := finish k w :: !written;
              last_wdb := w.w_db;
              write_primary :=
                if k + 1 < write_primaries then Some (start_write_primary (k + 1)) else None;
              Gc.compact ()
            end)
          !write_primary;
        window)
  in
  let last_probe = match !written with w :: _ -> w.wr_tallies | [] -> [] in
  let written = List.rev !written and wdb = !last_wdb in
  let setup_times = setup_times @ List.rev !write_setups in
  let window_io = Io.diff ~after:(Db.io_stats db) ~before:io_before in
  let tallies = merge_batches (List.map fst windows) in
  let probe_tallies = List.concat_map (fun w -> w.wr_tallies) written in
  let read_checks =
    if reads_only then Some (check_reads db tallies) else None
  in
  let all_tallies = warm_tallies @ tallies @ probe_tallies in
  (* mixed_durable: replica catch-up and recovery of its one primary, after
     every write *)
  let mixed_catchup =
    if reads_only then None
    else begin
      check_acked ~what:"primary" db all_tallies;
      let replica, catchup_s, catchups =
        repeat_timed ~prepare:ignore (fun () -> catch_up ~port ~spans:ship_spans)
      in
      same_content ~what:"replica" ~expected:db replica;
      check_acked ~what:"replica" replica all_tallies;
      Some (catchup_s, catchups)
    end
  in
  stop_server server;
  (* recovery of the last written primary's disk image, after every write
     on it *)
  let records = Db.durable_records wdb in
  let recovered, recover_s, recoveries =
    repeat_timed ~prepare:(fun () -> copy_disk (Db.disk wdb)) (fun disk -> Db.recover disk config)
  in
  (match Db.verify recovered with
   | Ok _ -> ()
   | Error l -> problem "recovered store fails Db.verify: %s" (String.concat "; " l));
  same_content ~what:"recovered store" ~expected:wdb recovered;
  check_acked ~what:"recovered store" recovered (if reads_only then last_probe else all_tallies);
  let catchup_s, catchups =
    match mixed_catchup with
    | Some c -> c
    | None ->
      let l = List.filter_map (fun w -> w.wr_catchup_s) written in
      (mean l, List.length l)
  in
  let space_amp =
    match written with
    | [] -> space_amp db ~corpus all_tallies
    | _ -> mean (List.map (fun w -> w.wr_space_amp) written)
  in
  let reads = completed ~write:false tallies in
  let writes = completed ~write:true (tallies @ probe_tallies) in
  let read_lat = sorted_latencies reads and write_lat = sorted_latencies writes in
  (* the p99s' shares: the window's stretches for reads, and for writes
     the write primaries, or the window's stretches on mixed_durable *)
  let read_shares = window_shares ~write:false windows in
  let write_shares =
    match written with
    | [] -> window_shares ~write:true windows
    | _ -> List.map (fun w -> completed ~write:true w.wr_tallies) written
  in
  let attempted = List.fold_left (fun n t -> n + t.attempted) 0 all_tallies in
  let failed = List.fold_left (fun n t -> n + t.failed) 0 all_tallies in
  List.iter (fun t -> Option.iter (fun e -> log "first failure: %s" e) t.first_error) all_tallies;
  (* the stamp: everything needed to tell two results apart *)
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"
  in
  let str = Printf.sprintf "%S" and int = string_of_int in
  let samples lat shares =
    obj [ ("samples", int (Array.length lat)); ("beyond_p99", int (beyond lat 99.0));
          ("p99_nearest_rank_ms", json_num (percentile lat 99.0));
          ("stretches", int stretches);
          ("p99_shares", int (List.length shares));
          ("fewest_in_a_share",
           int (List.fold_left (fun m l -> Stdlib.min m (List.length l)) max_int shares));
          ("share_p99_ms", "[" ^ String.concat ", " (List.map json_num (share_p99s shares)) ^ "]") ]
  in
  print_endline
    (obj
       [ ( "stamp",
           obj
             [ ("workload", str (Gen.name a.workload)); ("seed", int a.seed);
               ("seconds", json_num a.seconds);
               ("mode", str (if a.trace then "trace" else "full"));
               ("nproc", int (Domain.recommended_domain_count ()));
               ("commit", str a.commit); ("source_digest", str a.source_digest);
               ("ocaml", str Sys.ocaml_version); ("clients", int clients);
               ( "corpus",
                 obj
                   [ ("documents", int corpus.c_documents);
                     ("versions", int corpus.c_versions);
                     ("printed_bytes", int corpus.c_printed_bytes);
                     ("materialized_bytes", int corpus.c_materialized_bytes);
                     ("pages", int corpus.c_pages);
                     ("disk_bytes", int (corpus.c_pages * Disk.page_size)) ] );
               ( "cache_budgets",
                 obj
                   [ ("version_cache_bytes", int config.Config.version_cache_bytes);
                     ("buffer_pool_pages", int config.Config.buffer_pool_pages);
                     ("buffer_pool_bytes",
                      int (config.Config.buffer_pool_pages * Disk.page_size)) ] );
               ( "warm_up",
                 obj
                   [ ("batches", int warm_batches); ("vcache_hit", json_num warm_vc);
                     ("pool_hit", json_num warm_pool) ] );
               ( "window",
                 obj
                   [ ("vcache_hit",
                      json_num (ratio window_io.Io.vcache_hits window_io.Io.vcache_misses));
                     ("pool_hit",
                      json_num (ratio window_io.Io.cache_hits window_io.Io.cache_misses));
                     ("deltas_applied", int window_io.Io.deltas_applied) ] );
               ("read_latency", samples read_lat read_shares);
               ("write_latency", samples write_lat write_shares);
               ("setup_samples", int (List.length setup_times));
               ("catchup_samples", int catchups); ("recover_samples", int recoveries);
               ("journal_records", int records);
               ( "read_checks",
                 match read_checks with
                 | Some (n, distinct) -> obj [ ("replies", int n); ("distinct", int distinct) ]
                 | None -> "null" );
               ("attempted", int attempted); ("failed", int failed);
               ("failed_frac", json_num (float_of_int failed /. float_of_int (Stdlib.max 1 attempted)))
             ] ) ]);
  if Array.length read_lat < 1000 || Array.length write_lat < 1000 then
    log "warning: fewer than 1000 samples; p99 has fewer than 10 beyond it";
  let metrics =
    if not a.trace then
      [ ("read_p50_ms", "ms", hd_percentile read_lat 50.0);
        ("read_p99_ms", "ms", share_p99 read_shares);
        ("write_p50_ms", "ms", hd_percentile write_lat 50.0);
        ("write_p99_ms", "ms", share_p99 write_shares);
        ("ops_per_s", "ops/s",
         window_rate windows ~seconds:stretch_s);
        ("setup_s", "s", median setup_times);
        ("recover_s", "s", recover_s);
        ("catchup_s", "s", catchup_s);
        ("space_amp", "ratio", space_amp) ]
    else traced_metrics a ~spec ~ping_us ~warm_tallies ~tallies ~probe_tallies:last_probe
        ~ship_spans:!ship_spans ~recover_s ~records
  in
  if print_result ~attempted ~failed metrics then 0 else 1

let usage () =
  prerr_endline
    "usage: main.exe --workload read_hot|history_cold|mixed_durable --seed N \
     --seconds S --trace 0|1 [--out DIR] [--commit C] [--source-digest D]";
  exit 2

let parse_args argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = Hashtbl.find_opt tbl k in
  let int k = match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage () in
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "out"; "commit"; "source-digest" ])
      then usage ())
    tbl;
  let workload =
    match Option.bind (get "workload") Gen.of_name with Some w -> w | None -> usage ()
  in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  {
    workload;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace = (match get "trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage ());
    out_dir = Option.value ~default:"." (get "out");
    commit = Option.value ~default:"unknown" (get "commit");
    source_digest = Option.value ~default:"unknown" (get "source-digest");
  }

let () = exit (run (parse_args Sys.argv))
