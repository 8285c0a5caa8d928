(* Seeded inputs of the three workloads: corpus specs and per-client op
   streams.  Everything here is a pure function of the workload and the
   seed, so the untraced run, the traced run and the generation test all
   see the same streams. *)

module Load = Txq_workload.Load
module Mixed = Txq_workload.Mixed
module Restaurant = Txq_workload.Restaurant
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Print = Txq_xml.Print
module Timestamp = Txq_temporal.Timestamp
module Duration = Txq_temporal.Duration

type workload = Read_hot | History_cold | Mixed_durable

let workloads = [ Read_hot; History_cold; Mixed_durable ]

let name = function
  | Read_hot -> "read_hot"
  | History_cold -> "history_cold"
  | Mixed_durable -> "mixed_durable"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) workloads

(* Write payloads are printed here, when the op is generated, so the
   client-side XML printing never lands inside a timed request. *)
type op =
  | Read of string
  | Insert of string * string
  | Update of string * string
  | Delete of string

let is_write = function Read _ -> false | Insert _ | Update _ | Delete _ -> true

let to_string = function
  | Read s -> "query " ^ s
  | Insert (url, p) -> Printf.sprintf "insert %s %s" url p
  | Update (url, p) -> Printf.sprintf "update %s %s" url p
  | Delete url -> "delete " ^ url

let of_mixed = function
  | Mixed.Query s -> Read s
  | Mixed.Insert (url, xml) -> Insert (url, Print.to_string xml)
  | Mixed.Update (url, xml) -> Update (url, Print.to_string xml)
  | Mixed.Delete url -> Delete url

(* Corpus sizes, against Config.default's 8 MiB version cache and
   256-page (1 MiB) buffer pool:
   - read_hot: 6 x 12 versions of 20 restaurants, ~1.8 MB materialized
     and ~180 pages, so after warm-up both caches hold everything;
   - history_cold: 8 x 60 versions, ~12 MB materialized and ~1000 pages,
     so neither cache can hold the history;
   - mixed_durable: the default spec (10 x 20) that Mixed's reads target.
   The corpus is Load.default_spec's seed for every run: the run seed
   varies the op streams, while a corpus drawn per seed moved read_hot's
   p50 across runs twice as much as the streams and the machine did. *)
let spec workload =
  let d = Load.default_spec in
  match workload with
  | Read_hot -> { d with Load.documents = 6; versions = 12 }
  | History_cold -> { d with Load.documents = 8; versions = 60 }
  | Mixed_durable -> d

let history_start = Timestamp.of_date ~day:1 ~month:1 ~year:2001

(* Load.load_db commits round-robin, one commit_gap apart, starting at
   01/01/2001: the loaded history is [documents * versions] gaps long. *)
let history_instant rng (spec : Load.spec) =
  let commits = spec.Load.documents * spec.Load.versions in
  Timestamp.add history_start
    (Duration.scale (Rng.int rng commits) spec.Load.commit_gap)

(* The paper's temporal operators, one statement form per operator as the
   benchmark's definition lists them, with equal weights: no measured mix
   of these operators exists to weight them by.  [operator] picks the form;
   the operands are drawn from [rng], instants uniformly inside the loaded
   history.  PREVIOUS/NEXT/DIFF navigate from
   the [guide] root element, which exists in every version: from a
   restaurant element absent in the adjacent version they answer an
   "unsupported: binding vanished" error. *)
let operators = 6

let history_statement rng (spec : Load.spec) ~operator =
  let url = Load.url_of (Rng.int rng spec.Load.documents) in
  let at () = Timestamp.to_string (history_instant rng spec) in
  let cuisine () = Rng.pick rng Vocab.cuisines in
  match operator with
  | 0 ->
    (* TPatternScan *)
    Printf.sprintf
      {|SELECT R/name, R/price FROM doc("%s")[%s]//restaurant R WHERE R/cuisine = "%s"|}
      url (at ()) (cuisine ())
  | 1 ->
    (* TPatternScanAll *)
    Printf.sprintf
      {|SELECT TIME(R), R/price FROM doc("%s")[EVERY]//restaurant R WHERE R/cuisine = "%s"|}
      url (cuisine ())
  | 2 ->
    (* CreTime / DelTime *)
    Printf.sprintf
      {|SELECT R/name, CREATE TIME(R), DELETE TIME(R) FROM doc("%s")[%s]//restaurant R WHERE R/cuisine = "%s"|}
      url (at ()) (cuisine ())
  | 3 ->
    (* PreviousTS / NextTS + Reconstruct *)
    Printf.sprintf
      {|SELECT PREVIOUS(G)/restaurant/price, NEXT(G)/restaurant/price FROM doc("%s")[%s]/guide G|}
      url (at ())
  | 4 ->
    (* Diff between consecutive versions *)
    Printf.sprintf {|SELECT DIFF(PREVIOUS(G), G) FROM doc("%s")[%s]/guide G|}
      url (at ())
  | _ ->
    (* Q2: a snapshot count that reconstructs nothing *)
    Printf.sprintf
      {|SELECT COUNT(R) FROM collection("guide.example.org/*")[%s]//restaurant R|}
      (at ())

(* Client ids: 0 and 1 are the timed clients, 2 and 3 warm up, 4 to 15 run
   the write probe, two per write primary.  Mixed namespaces written URLs
   by client id, so no two streams ever write the same document. *)
let stream workload ~seed ~client : unit -> op =
  let spec = spec workload in
  match workload with
  | Read_hot ->
    let g = Mixed.create ~mix:Mixed.read_only_mix ~spec ~client ~seed () in
    fun () -> of_mixed (Mixed.next_op g)
  | Mixed_durable ->
    let g = Mixed.create ~mix:Mixed.default_mix ~spec ~client ~seed () in
    fun () -> of_mixed (Mixed.next_op g)
  | History_cold ->
    (* the operators take turns from a seeded start, so every run carries
       the same mix and the seed varies only the operands *)
    let rng = Rng.create ~seed:(seed + (client * 7919)) in
    let turn = ref (Rng.int rng operators) in
    fun () ->
      let operator = !turn mod operators in
      incr turn;
      Read (history_statement rng spec ~operator)

let write_only_mix =
  { Mixed.default_mix with Mixed.w_query = 0; w_algebra = 0 }

(* The write probe of the read-only workloads: Mixed's inserts, updates and
   deletes without its reads. *)
let write_stream workload ~seed ~client : unit -> op =
  let spec = spec workload in
  let g = Mixed.create ~mix:write_only_mix ~spec ~client ~seed () in
  fun () -> of_mixed (Mixed.next_op g)

let take next n = List.init n (fun _ -> next ())
