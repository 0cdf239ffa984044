(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Sec. V) on the simulated machine and prints them in paper order —
   the output EXPERIMENTS.md records.  Scale via BENCH_SCALE=quick|full
   (default quick).

   Part 2 is a Bechamel microbenchmark suite (one Test.make per paper
   artifact) measuring the host-side cost of the primitive that
   dominates each experiment: the per-operation simulation cost of each
   scheme for the throughput figures, the region-formation analysis
   behind Fig. 8, and the recovery procedures behind Table I. *)

open Bechamel
open Toolkit
open Ido_runtime
module Vm = Ido_vm.Vm

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some "full" -> Ido_harness.Exp.Full
  | _ -> Ido_harness.Exp.Quick

(* BENCH_JOBS=N spreads the sweep cells of Part 1 over a domain pool;
   panels are identical at every N (see Ido_util.Pool).  Part 2 stays
   serial: Bechamel needs a quiet machine for its per-iteration fits. *)
let jobs =
  match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures *)

let regenerate () =
  print_endline "==========================================================";
  print_endline " iDO reproduction: all tables and figures (Sec. V)";
  print_endline
    (" scale: " ^ (match scale with Ido_harness.Exp.Quick -> "quick" | _ -> "full"));
  print_endline "==========================================================";
  print_newline ();
  let panels =
    Ido_util.Pool.with_jobs jobs (fun pool ->
        Ido_harness.Figures.all ?pool scale)
  in
  List.iter
    (fun (name, panel) ->
      Printf.printf "---- %s ----\n%s\n" name panel;
      flush stdout)
    panels

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-measurements *)

(* One simulated data-structure operation under a scheme (the unit of
   Figs. 5-7): the machine is booted once outside the measured
   closure; each iteration spawns a fresh worker on it and advances
   the simulation by [ops_per_iter] operations. *)
let ops_per_iter = 20

let throughput_test name scheme workload =
  let prog = Ido_workloads.Workload.named workload in
  let boot () =
    let cfg =
      (* Small per-thread logs: every iteration spawns a worker. *)
      { (Vm.config scheme) with undo_cap = 1024; redo_cap = 512; page_cap = 16 }
    in
    let m = Vm.create cfg prog in
    let _ = Vm.spawn m ~fname:"init" ~args:[] in
    ignore (Vm.run m);
    Vm.flush_all m;
    m
  in
  let mref = ref (boot ()) in
  Test.make ~name
    (Staged.stage (fun () ->
         (* Reboot before the heap (stacks + logs of retired workers)
            fills up; the occasional boot is noise the OLS fit absorbs. *)
         if Ido_region.Region.words_allocated (Vm.region !mref) > 4_000_000 then
           mref := boot ();
         let m = !mref in
         ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int ops_per_iter ]);
         match Vm.run m with
         | `Idle -> ()
         | _ -> failwith "bench run stuck"))

(* Runtime primitives on a bare persistent memory: the per-store /
   per-boundary costs whose ratio drives every throughput figure. *)
let primitive_tests =
  let pm = Ido_nvm.Pmem.create ~rng:(Ido_util.Rng.create 1) (1 lsl 20) in
  let region = Ido_region.Region.create pm in
  let w = Pwriter.create pm Ido_nvm.Latency.default in
  let undo = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:4096 in
  let jd = Justdo_log.create w region ~tid:1 ~nregs:16 in
  let ido = Ido_log.create w region ~tid:2 ~nregs:16 in
  let seq = ref 0 in
  [
    Test.make ~name:"prim:ido-boundary(4 regs + pc, 2 fences)"
      (Staged.stage (fun () ->
           Ido_log.write_out_regs w ido [ (0, 1L); (1, 2L); (2, 3L); (3, 4L) ];
           Pwriter.fence w;
           incr seq;
           Ido_log.set_recovery_pc w ido ~epoch:!seq 42;
           Pwriter.fence w;
           ignore (Pwriter.take_cost w)));
    Test.make ~name:"prim:atlas-undo-append(32B + fence)"
      (Staged.stage (fun () ->
           incr seq;
           Undo_log.log_write w undo ~addr:(!seq mod 1024) ~old:7L ~seq:!seq;
           if Undo_log.total pm undo mod 4000 = 0 then Undo_log.reset w undo;
           ignore (Pwriter.take_cost w)));
    Test.make ~name:"prim:justdo-log-store(3 words + fence)"
      (Staged.stage (fun () ->
           incr seq;
           Justdo_log.log_store w jd ~pc:!seq ~addr:(!seq mod 1024) ~value:9L;
           ignore (Pwriter.take_cost w)));
    Test.make ~name:"prim:persist-store(word + clwb + fence)"
      (Staged.stage (fun () ->
           incr seq;
           Pwriter.persist_store w (!seq mod 1024) 5L;
           ignore (Pwriter.take_cost w)));
  ]

(* Fig. 8's substrate: the full region-formation analysis of a
   function (CFG, liveness, alias, antidependences, hitting set). *)
let region_analysis_test =
  let f = Ido_ir.Ir.find_func (Ido_workloads.Workload.named "olist") "list_put" in
  Test.make ~name:"fig8:region-formation(list_put)"
    (Staged.stage (fun () -> ignore (Ido_instrument.Instrument.region_plan f)))

(* Table I's substrate: a full crash + recovery cycle. *)
let recovery_test name scheme =
  Test.make ~name
    (Staged.stage (fun () ->
         let prog = Ido_workloads.Workload.named "queue" in
         let m = Vm.create (Vm.config scheme) prog in
         let _ = Vm.spawn m ~fname:"init" ~args:[] in
         ignore (Vm.run m);
         Vm.flush_all m;
         ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ]);
         ignore (Vm.run ~until:(Vm.clock m + 50_000) m);
         Vm.crash m;
         ignore (Vm.recover m)))

let tests =
  Test.make_grouped ~name:"ido" ~fmt:"%s %s"
    ([
      throughput_test "fig5:memcached-op(ido)" Scheme.Ido "kvcache50";
      throughput_test "fig5:memcached-op(atlas)" Scheme.Atlas "kvcache50";
      throughput_test "fig6:redis-op(ido)" Scheme.Ido "objstore";
      throughput_test "fig6:redis-op(nvml)" Scheme.Nvml "objstore";
      throughput_test "fig7:stack-op(ido)" Scheme.Ido "stack";
      throughput_test "fig7:stack-op(justdo)" Scheme.Justdo "stack";
      throughput_test "fig7:hmap-op(ido)" Scheme.Ido "hmap";
      throughput_test "fig9:latency-op(ido)" Scheme.Ido "kvcache50";
      region_analysis_test;
      recovery_test "table1:crash-recover(ido)" Scheme.Ido;
      recovery_test "table1:crash-recover(atlas)" Scheme.Atlas;
    ]
    @ primitive_tests)

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let print_bench results =
  print_endline "==========================================================";
  print_endline " Bechamel microbenchmarks (host-side cost per iteration)";
  print_endline "==========================================================";
  Hashtbl.iter
    (fun instance_label tbl ->
      if instance_label = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun test_name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
                Printf.printf "  %-40s %12.0f ns/iter\n" test_name est
            | _ -> Printf.printf "  %-40s (no estimate)\n" test_name)
          tbl)
    results;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Serving panel: the paper's server applications driven open-loop
   (lib/serve) — tail latency per scheme on one sharded cell. *)

let serve_panel () =
  let requests =
    match scale with Ido_harness.Exp.Quick -> 500 | _ -> 4000
  in
  let mk scheme =
    Ido_serve.Config.make ~topology:(Ido_serve.Topology.static 4) ~batch:8
      ~requests ~zipf:0.99 ~workload:"kvcache50" ~scheme ()
  in
  let run pool =
    List.map
      (fun scheme -> Ido_serve.Serve.run_cell ?pool ~obs:true (mk scheme))
      [ Scheme.Ido; Scheme.Justdo ]
  in
  let cells =
    Ido_util.Pool.with_jobs jobs run
  in
  Printf.printf "---- serving: open-loop tail latency ----\n%s\n"
    (Ido_serve.Report.render cells);
  flush stdout

let () =
  regenerate ();
  serve_panel ();
  let results = benchmark () in
  print_bench results
