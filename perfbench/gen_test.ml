(* The benchmark's inputs are a function of the workload and the seed alone:
   the same seed must give the same op streams, another seed other ones. *)

module Timestamp = Txq_temporal.Timestamp
module Duration = Txq_temporal.Duration
module Load = Txq_workload.Load

let ops w ~seed ~client = List.map Gen.to_string (Gen.take (Gen.stream w ~seed ~client) 300)

let writes w ~seed ~client =
  List.map Gen.to_string (Gen.take (Gen.write_stream w ~seed ~client) 100)

let same_seed_same_stream () =
  List.iter
    (fun w ->
      for client = 0 to 15 do
        Alcotest.(check (list string))
          (Gen.name w ^ " ops") (ops w ~seed:7 ~client) (ops w ~seed:7 ~client);
        Alcotest.(check (list string))
          (Gen.name w ^ " writes") (writes w ~seed:7 ~client)
          (writes w ~seed:7 ~client)
      done)
    Gen.workloads

let other_seed_other_stream () =
  List.iter
    (fun w ->
      let name = Gen.name w in
      Alcotest.(check bool) (name ^ " seed") false
        (ops w ~seed:7 ~client:0 = ops w ~seed:8 ~client:0);
      Alcotest.(check bool) (name ^ " client") false
        (ops w ~seed:7 ~client:0 = ops w ~seed:7 ~client:1))
    Gen.workloads

(* Instants must fall inside the loaded history, and cover it: a snapshot
   after the last commit would only ever see current versions. *)
let instants_inside_history () =
  let spec = Gen.spec Gen.History_cold in
  let commits = spec.Load.documents * spec.Load.versions in
  let last =
    Timestamp.add Gen.history_start
      (Duration.scale (commits - 1) spec.Load.commit_gap)
  in
  let rng = Txq_workload.Rng.create ~seed:3 in
  let draws = List.init 2000 (fun _ -> Gen.history_instant rng spec) in
  List.iter
    (fun ts ->
      Alcotest.(check bool) "inside" true
        (Timestamp.compare ts Gen.history_start >= 0
         && Timestamp.compare ts last <= 0))
    draws;
  let late = List.filter (fun ts -> Timestamp.compare ts (Load.midpoint_ts spec) > 0) draws in
  let share = float_of_int (List.length late) /. 2000.0 in
  Alcotest.(check bool) "uniform" true (share > 0.4 && share < 0.6)

let () =
  Alcotest.run "perfbench"
    [
      ( "generation",
        [
          Alcotest.test_case "same seed, same streams" `Quick same_seed_same_stream;
          Alcotest.test_case "other seed, other streams" `Quick other_seed_other_stream;
          Alcotest.test_case "instants inside the history" `Quick instants_inside_history;
        ] );
    ]
