(* Tier-1 coverage for the crash-point exploration engine (lib/check).

   Budgets here are deliberately small, and the every-index check of
   restored crash images against from-boot injection boots a machine
   per index, so the suite bounds its total work to keep the tree
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

(* Restoring a crash image taken during one forward run, then
   recovering, must be the same crash as re-running from boot and
   crashing the live machine: the same verdict and event, oracle
   digest, recovery statistics and post-recovery clock at every crash
   index.  Small caches force evictions (the eviction generator is
   part of the image) and strict Origin fails, so violating indices are
   compared too.  Each case runs every scheme on one workload (NVML on
   [objstore], the only one it supports) with 2 threads x 6 ops; one
   case is a few thousand from-boot runs.  The cases are fixed: every
   workload once, the cache size cycling through 2, 4 and 4096 lines
   and Origin's oracle alternating between strict and prefix. *)
let restore_cases =
  List.mapi
    (fun i workload ->
      (workload, i, [| 2; 4; 4096 |].(i mod 3), i mod 2 = 0))
    [ "stack"; "queue"; "olist"; "hmap"; "mlog" ]

let restore_is_inject (workload, seed, cache_lines, strict) () =
  List.iter
    (fun scheme ->
      let workload = if scheme = Scheme.Nvml then "objstore" else workload in
      (* Each objstore boot prefills 1000 objects (~7 ms), so NVML runs
         fewer ops to keep its from-boot runs few. *)
      let threads, ops = if workload = "objstore" then (1, 2) else (2, 6) in
      let s =
        Engine.defaults ~threads ~ops ~cache_lines ~strict ~seed ~scheme
          ~workload ()
      in
      let total = Array.length (Engine.record s) in
      let indices = Array.init (total + 1) Fun.id in
      Array.iter2
        (fun (r : Engine.outcome) (b : Engine.outcome) ->
          let check what same =
            if not same then
              Alcotest.failf "%s/%s index %d: %s differs" (Scheme.name scheme)
                workload b.Engine.o_injection.Engine.index what
          in
          check "injection" (r.Engine.o_injection = b.Engine.o_injection);
          check "digest" (r.Engine.o_digest = b.Engine.o_digest);
          check "recovery stats" (r.Engine.o_stats = b.Engine.o_stats);
          check "clock" (r.Engine.o_clock = b.Engine.o_clock))
        (Engine.restored_outcomes s indices)
        (Engine.inject_outcomes s indices))
    Scheme.all

let restore_tests =
  List.map
    (fun ((workload, seed, cache_lines, strict) as case) ->
      Alcotest.test_case
        (Printf.sprintf "%s seed %d, %d lines%s: restored = from-boot" workload
           seed cache_lines
           (if strict then ", strict" else ""))
        `Quick (restore_is_inject case))
    restore_cases

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
    ("check.crash_image", restore_tests);
  ]
