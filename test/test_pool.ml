(* Tier-1 coverage for the domain pool (lib/util/pool.ml) and the
   parallel drivers built on it: results come back in submission
   order, task exceptions re-raise at await, a serial pool runs tasks
   synchronously, an awaiting domain helps run queued tasks, and a
   pooled exploration produces a report digest-identical to the serial
   path. *)

open Ido_util
open Ido_runtime
open Ido_check

let qtest = QCheck_alcotest.to_alcotest

let ordering () =
  Pool.with_pool 4 (fun pool ->
      let xs = List.init 64 Fun.id in
      let ys =
        Pool.map_list pool
          (fun i ->
            (* Uneven per-task work so completion order differs from
               submission order on a real multicore. *)
            if i mod 7 = 0 then
              ignore (Sys.opaque_identity (Array.init 10_000 Fun.id));
            i * i)
          xs
      in
      Alcotest.(check (list int))
        "squares in submission order"
        (List.map (fun i -> i * i) xs)
        ys)

(* A pool of 2 must compute on 2 domains: each task waits for the
   other to start, so the pair finishes only if the awaiting domain
   runs one of them while the single worker runs the other.  The
   deadline turns a non-helping await into a failure, not a hang. *)
let await_helps () =
  Pool.with_pool 2 (fun pool ->
      let started = Atomic.make 0 in
      let deadline = Unix.gettimeofday () +. 10. in
      let rendezvous _ =
        Atomic.incr started;
        while Atomic.get started < 2 do
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "the other task never started: await did not help";
          Domain.cpu_relax ()
        done
      in
      ignore (Pool.map_list pool rendezvous [ 0; 1 ]))

exception Boom of int

let exception_propagation () =
  Pool.with_pool 3 (fun pool ->
      let good = Pool.submit pool (fun () -> 41) in
      let bad = Pool.submit pool (fun () -> raise (Boom 7)) in
      Alcotest.(check int) "good future" 41 (Pool.await good);
      (match Pool.await bad with
      | _ -> Alcotest.fail "await should re-raise the task's exception"
      | exception Boom 7 -> ());
      (* A failed task must not poison the pool. *)
      Alcotest.(check int)
        "pool survives a failed task" 5
        (Pool.await (Pool.submit pool (fun () -> 5))))

let serial_runs_at_submit () =
  let pool = Pool.create 1 in
  let touched = ref false in
  let fut =
    Pool.submit pool (fun () ->
        touched := true;
        3)
  in
  Alcotest.(check bool) "task ran synchronously at submit" true !touched;
  Alcotest.(check int) "result" 3 (Pool.await fut);
  (match Pool.await (Pool.submit pool (fun () -> raise (Boom 1))) with
  | _ -> Alcotest.fail "serial await should re-raise"
  | exception Boom 1 -> ());
  Pool.shutdown pool

let opt_map_none () =
  Alcotest.(check (list int))
    "opt_map_list None is List.map" [ 2; 4; 6 ]
    (Pool.opt_map_list None (fun x -> 2 * x) [ 1; 2; 3 ])

let invalid_jobs () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "jobs must be >= 1 (got 0)") (fun () ->
      ignore (Pool.create 0))

let submit_after_shutdown () =
  List.iter
    (fun jobs ->
      let pool = Pool.create jobs in
      Pool.shutdown pool;
      Pool.shutdown pool;
      (* idempotent *)
      Alcotest.check_raises
        (Printf.sprintf "submit after shutdown rejected (jobs = %d)" jobs)
        (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
          ignore (Pool.submit pool (fun () -> 0))))
    [ 1; 2 ]

(* OCaml 5.1 runs at most 128 domains: a pool that cannot start all
   its workers joins the ones it started and raises, and the runtime
   is left able to start a fresh pool. *)
let domain_limit () =
  (match Pool.create 129 with
  | pool ->
      Pool.shutdown pool;
      Alcotest.fail "create 129 should exceed the domain limit"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int))
    "with_pool 2 still works" [ 1; 2 ]
    (Pool.with_pool 2 (fun pool -> Pool.map_list pool succ [ 0; 1 ]))

(* ------------------------------------------------------------------ *)
(* Stress: the shared-queue scheduler under a deep queue of uneven
   tasks must keep every ordering guarantee it makes when idle. *)

(* Durations spanning ~3 orders of magnitude, so helping awaits, idle
   workers waiting for work and awaits blocking on a claimed task all
   trigger. *)
let uneven_work i =
  if i mod 97 = 0 then ignore (Sys.opaque_identity (Array.init 30_000 Fun.id))
  else if i mod 13 = 0 then
    ignore (Sys.opaque_identity (Array.init 2_000 Fun.id))
  else if i mod 3 = 0 then ignore (Sys.opaque_identity (List.init 50 Fun.id))

let stress_ordering () =
  Pool.with_pool 4 (fun pool ->
      let n = 1000 in
      let ran = Atomic.make 0 in
      let xs = List.init n Fun.id in
      let ys =
        Pool.map_list pool
          (fun i ->
            uneven_work i;
            Atomic.incr ran;
            i * 3)
          xs
      in
      Alcotest.(check int) "every task ran" n (Atomic.get ran);
      Alcotest.(check (list int))
        "1000 results in submission order"
        (List.map (fun i -> i * 3) xs)
        ys)

let stress_exception_backtrace () =
  Printexc.record_backtrace true;
  Pool.with_pool 4 (fun pool ->
      let futs =
        List.init 300 (fun i ->
            ( i,
              Pool.submit pool (fun () ->
                  (* Recording is per-domain: enable it where the raise
                     happens so the captured backtrace is non-empty. *)
                  Printexc.record_backtrace true;
                  uneven_work i;
                  if i mod 71 = 0 then raise (Boom i);
                  i) ))
      in
      List.iter
        (fun (i, fut) ->
          if i mod 71 = 0 then (
            match Pool.await fut with
            | _ -> Alcotest.fail "await should re-raise under load"
            | exception Boom j ->
                Alcotest.(check int) "task's own exception payload" i j;
                (* raise_with_backtrace re-raised the task's trace, not
                   an empty one minted on the awaiting domain. *)
                Alcotest.(check bool)
                  "backtrace propagated" true
                  (String.length (Printexc.get_backtrace ()) > 0))
          else Alcotest.(check int) "result" i (Pool.await fut))
        futs)

let stress_shutdown_under_load () =
  (* Shutdown with 1000 tasks still queued: the drain must run every
     one of them (none dropped, none double-run) before join. *)
  let n = 1000 in
  let ran = Atomic.make 0 in
  let pool = Pool.create 4 in
  let futs =
    List.init n (fun i ->
        Pool.submit pool (fun () ->
            uneven_work i;
            Atomic.incr ran;
            i))
  in
  (* Await a few mid-load, then shut down with the rest in flight. *)
  List.iteri
    (fun i fut -> if i < 10 then Alcotest.(check int) "early await" i (Pool.await fut))
    futs;
  Pool.shutdown pool;
  Alcotest.(check int) "all tasks ran exactly once" n (Atomic.get ran);
  Alcotest.check_raises "closed after drain"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> 0)))

(* ------------------------------------------------------------------ *)
(* Parallel exploration determinism: the whole report — schedule
   length, sampled indices, verdicts, counterexample — must be
   digest-identical between a serial and a pooled run. *)

let report_digest (r : Engine.report) =
  let inj (i : Engine.injection) =
    Printf.sprintf "%d:%s:%s" i.Engine.index
      (Option.value i.Engine.event ~default:"terminal")
      (match i.Engine.verdict with Ok () -> "ok" | Error m -> m)
  in
  String.concat "|"
    ([
       string_of_int r.Engine.total_events;
       string_of_int r.Engine.tested;
       string_of_bool r.Engine.exhaustive;
     ]
    @ List.map inj r.Engine.violations
    @ [ (match r.Engine.counterexample with None -> "-" | Some i -> inj i) ])
  |> Digest.string |> Digest.to_hex

let parallel_explore_identical scheme workload () =
  let s = Engine.defaults ~ops:10 ~scheme ~workload () in
  let serial = Engine.explore s ~budget:20 in
  let pooled =
    Pool.with_pool 4 (fun pool -> Engine.explore ~pool s ~budget:20)
  in
  Alcotest.(check string)
    "report digest matches serial" (report_digest serial)
    (report_digest pooled)

(* Random chunk sizes (including 0 = auto) against the pure map. *)
let prop_map_chunks_is_map =
  QCheck.Test.make ~name:"map_chunks f = List.map f at any chunk size"
    ~count:25
    QCheck.(pair (int_bound 40) (list_of_size Gen.(int_range 0 60) small_int))
    (fun (chunk, xs) ->
      Pool.with_pool 3 (fun pool ->
          Pool.map_chunks ~chunk pool (fun x -> (3 * x) + 1) xs
          = List.map (fun x -> (3 * x) + 1) xs))

(* The figure sweeps route their cells through Pool.opt_map_list; a pooled
   panel must render byte-identically to the serial one. *)
let parallel_sweep_identical () =
  let serial = Ido_harness.Figures.fig6 Ido_harness.Exp.Quick in
  let pooled =
    Pool.with_pool 3 (fun pool ->
        Ido_harness.Figures.fig6 ~pool Ido_harness.Exp.Quick)
  in
  Alcotest.(check string) "fig6 panel identical" serial pooled

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "map_list preserves order" `Quick ordering;
        Alcotest.test_case "await helps: 2 jobs compute on 2 domains" `Quick
          await_helps;
        Alcotest.test_case "exceptions re-raise at await" `Quick
          exception_propagation;
        Alcotest.test_case "serial pool runs at submit" `Quick
          serial_runs_at_submit;
        Alcotest.test_case "opt_map_list without a pool" `Quick opt_map_none;
        Alcotest.test_case "create rejects jobs < 1" `Quick invalid_jobs;
        Alcotest.test_case "submit after shutdown rejected" `Quick
          submit_after_shutdown;
        Alcotest.test_case "1000 uneven tasks keep submission order" `Quick
          stress_ordering;
        Alcotest.test_case "exceptions re-raise with backtrace under load"
          `Quick stress_exception_backtrace;
        Alcotest.test_case "shutdown drains 1000 queued tasks" `Quick
          stress_shutdown_under_load;
        qtest prop_map_chunks_is_map;
        Alcotest.test_case "create past the domain limit raises" `Quick
          domain_limit;
      ] );
    ( "pool-drivers",
      [
        Alcotest.test_case "explore ido/queue: -j4 = serial" `Quick
          (parallel_explore_identical Scheme.Ido "queue");
        Alcotest.test_case "explore atlas/stack: -j4 = serial" `Quick
          (parallel_explore_identical Scheme.Atlas "stack");
        Alcotest.test_case "fig6 sweep: pooled = serial" `Quick
          parallel_sweep_identical;
      ] );
  ]
