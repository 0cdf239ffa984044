(* Tier-1 coverage for the crash-point exploration engine (lib/check).

   Budgets here are deliberately small: each injected crash boots a
   fresh machine, so the suite bounds its total work to keep the tree
   fast.  The exhaustive sweeps live behind bin/ido_check. *)

open Ido_runtime
open Ido_check

let spec ?threads ?ops ?cache_lines ?strict ~scheme ~workload () =
  Engine.defaults ?threads ?ops ?cache_lines ?strict ~scheme ~workload ()

(* Recording the persist-event schedule twice must give the same
   sequence: injection indices are only meaningful if replays observe
   the schedule the recording did. *)
let recording_deterministic () =
  let s = spec ~scheme:Scheme.Ido ~workload:"queue" ~ops:10 () in
  let a = Engine.record s in
  let b = Engine.record s in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "event %d" i)
        (Ido_obs.Obs.describe e) (Ido_obs.Obs.describe b.(i)))
    a

(* A crash at every sampled point of an instrumented scheme must
   recover to a state the Atomic oracle accepts. *)
let clean_exploration scheme workload () =
  let s = spec ~scheme ~workload ~ops:12 () in
  let r = Engine.explore s ~budget:25 in
  (match r.Engine.counterexample with
  | None -> ()
  | Some inj ->
      Alcotest.failf "unexpected violation at index %d: %s" inj.Engine.index
        (match inj.Engine.verdict with Error m -> m | Ok () -> "ok"));
  Alcotest.(check int) "no violations" 0 (List.length r.Engine.violations);
  Alcotest.(check bool) "tested something" true (r.Engine.tested > 0)

(* Origin has no failure-atomicity mechanism: with a small cache the
   eviction stream leaks partial updates, and the strict oracle must
   catch one, shrink it, and hand back an index that replays. *)
let origin_counterexample () =
  let s =
    spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:4
      ~strict:true ()
  in
  let r = Engine.explore s ~budget:60 in
  match r.Engine.counterexample with
  | None -> Alcotest.fail "origin/stack survived the strict oracle"
  | Some inj -> (
      (match inj.Engine.verdict with
      | Ok () -> Alcotest.fail "counterexample carries an Ok verdict"
      | Error _ -> ());
      (* The shrunk index must replay to a violation on a fresh run. *)
      let again = Engine.inject s inj.Engine.index in
      match again.Engine.verdict with
      | Error _ -> ()
      | Ok () ->
          Alcotest.failf "index %d did not replay to a violation"
            inj.Engine.index)

(* Under the Prefix oracle Origin's crash states are merely required to
   be memory-safe; the same configuration must then pass. *)
let origin_prefix_clean () =
  let s = spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:8 () in
  let r = Engine.explore s ~budget:40 in
  Alcotest.(check int) "prefix oracle accepts origin" 0
    (List.length r.Engine.violations)

(* Cross-scheme differential check: instrumentation must not change
   what the program computes.  With one thread the schedule is fixed,
   so every scheme's crash-free final state must digest identically.
   (Mnemosyne's abort backoff consumes thread randomness only under
   contention, so single-threaded runs stay comparable.) *)
let differential workload () =
  let digest scheme =
    Engine.final_digest (spec ~scheme ~workload ~threads:1 ~ops:15 ())
  in
  let reference = digest Scheme.Origin in
  List.iter
    (fun scheme ->
      if Engine.supported scheme workload then
        Alcotest.(check string)
          (Printf.sprintf "%s matches origin on %s" (Scheme.name scheme)
             workload)
          reference (digest scheme))
    Scheme.all

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case (Printf.sprintf "all schemes agree on %s" w) `Quick
        (differential w))
    [ "stack"; "queue"; "olist"; "hmap"; "kvcache50"; "objstore"; "mlog" ]

let suites =
  [
    ( "check.engine",
      [
        Alcotest.test_case "recorded schedule is deterministic" `Quick
          recording_deterministic;
        Alcotest.test_case "ido/queue crash matrix is clean" `Quick
          (clean_exploration Scheme.Ido "queue");
        Alcotest.test_case "atlas/stack crash matrix is clean" `Quick
          (clean_exploration Scheme.Atlas "stack");
        Alcotest.test_case "justdo/stack crash matrix is clean" `Quick
          (clean_exploration Scheme.Justdo "stack");
        Alcotest.test_case "mnemosyne/mlog crash matrix is clean" `Quick
          (clean_exploration Scheme.Mnemosyne "mlog");
        Alcotest.test_case "origin/stack fails strict oracle, shrinks, replays"
          `Quick origin_counterexample;
        Alcotest.test_case "origin/stack passes prefix oracle" `Quick
          origin_prefix_clean;
      ] );
    ("check.differential", differential_cases);
  ]
