(* Command-line driver: regenerate any of the paper's tables/figures,
   run a single throughput or crash-recovery experiment, or dump a
   workload's (instrumented) IR. *)

open Cmdliner
open Ido_runtime
open Ido_harness

let scale_arg =
  let scale_conv = Arg.enum [ ("quick", Exp.Quick); ("full", Exp.Full) ] in
  Arg.(value & opt scale_conv Exp.Quick & info [ "scale" ] ~doc:"quick or full")

(* Unknown scheme/workload names are usage errors: report them on
   stderr with the valid names and exit 2 (scripts distinguish "you
   typo'd the name" from crashes and from experiment failures). *)
let die_unknown what name valid =
  Printf.eprintf "ido_bench: unknown %s %S (valid: %s)\n" what name
    (String.concat ", " valid);
  exit 2

let resolve_scheme name =
  match Scheme.of_name name with
  | Some s -> s
  | None -> die_unknown "scheme" name (List.map Scheme.name Scheme.all)

let resolve_workload name =
  match Ido_workloads.Workload.find name with
  | Some _ -> name
  | None -> die_unknown "workload" name Ido_workloads.Workload.names

(* Config construction is where usage validation lives (thread and
   op counts, Zipf exponents, topology shapes, list flags): surface
   those Invalid_argument diagnostics as exit 2, never a backtrace. *)
let usage_guard f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "ido_bench: %s\n" msg;
    exit 2

let scheme_arg =
  Term.(
    const resolve_scheme
    $ Arg.(
        value & opt string "ido"
        & info [ "scheme" ] ~doc:"Failure-atomicity scheme"))

let workload_arg =
  Term.(
    const resolve_workload
    $ Arg.(
        value & opt string "stack"
        & info [ "workload" ] ~doc:"Benchmark program"))

let threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ]
        ~doc:"Worker threads (default 4; 1 for the single-threaded objstore)")

(* A single-threaded workload runs on one worker unless told otherwise,
   and more than one is a usage error. *)
let threads_for workload threads =
  let w = Ido_workloads.Workload.get workload in
  match threads with
  | None -> if w.single_threaded then 1 else 4
  | Some t ->
      usage_guard (fun () -> Ido_workloads.Workload.check_threads w t);
      t

let ops_arg =
  Arg.(value & opt int 4000 & info [ "ops" ] ~doc:"Total operations")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed")

let opt_arg =
  Arg.(
    value & flag
    & info [ "opt" ]
        ~doc:
          "Run the persistence-redundancy optimizer (verified by \
           $(b,ido_check optimize)) over the instrumented program before \
           measuring; the JSON record defaults to the _opt variant of the \
           output path.")

let jobs_arg =
  Arg.(
    value
    & opt int (Ido_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the sweep cells (default: the machine's \
           recommended domain count; 1 = serial).  Panels are identical \
           at every -j.")

let figure_cmd name doc render =
  let run scale jobs =
    usage_guard @@ fun () ->
    Ido_util.Pool.with_jobs jobs (fun pool ->
        print_string (render ?pool scale);
        print_newline ())
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ scale_arg $ jobs_arg)

(* [--ops] is a total, split evenly among the workers: a total below 1,
   or below the thread count, is rejected here, before the split could
   round it up to one op per worker.  A total that does not divide runs
   the rounded-down split, and stderr says so; stdout stays the run's
   report alone. *)
let split_spec ?obs ~seed ~scheme ~workload ~threads ~total_ops () =
  usage_guard (fun () ->
      Spec.check_positive "ops" total_ops;
      Spec.check_positive "threads" threads;
      if total_ops < threads then
        invalid_arg
          (Printf.sprintf "ops must be >= threads (got %d ops for %d threads)"
             total_ops threads);
      let ops = total_ops / threads in
      if ops * threads <> total_ops then
        Printf.eprintf
          "ido_bench: running %d ops (%d per thread): --ops %d is not a \
           multiple of --threads %d\n%!"
          (ops * threads) ops total_ops threads;
      Exp.Spec.make ~seed ?obs ~scheme ~workload ~threads ~ops ())

let run_cmd =
  let doc = "One throughput run: workload x scheme x threads." in
  let run scheme workload threads ops seed =
    let threads = threads_for workload threads in
    let spec =
      split_spec ~seed ~scheme ~workload ~threads ~total_ops:ops ()
    in
    let r = (Exp.measure spec).Exp.prun in
    Printf.printf
      "%s on %s, %d threads: %.3f Mops/s (%d ops in %.3f ms simulated; %.1f fences/op, %.1f clwb/op)\n"
      (Scheme.name scheme) workload threads r.Exp.mops r.Exp.ops
      (float_of_int r.Exp.sim_ns /. 1e6)
      (float_of_int r.Exp.fences /. float_of_int (max 1 r.Exp.ops))
      (float_of_int r.Exp.clwbs /. float_of_int (max 1 r.Exp.ops))
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ scheme_arg $ workload_arg $ threads_arg $ ops_arg $ seed_arg)

let crash_cmd =
  let doc = "Crash injection + recovery + integrity check." in
  let crash_at =
    Arg.(value & opt int 100_000 & info [ "at" ] ~doc:"Crash time (simulated ns)")
  in
  let run scheme workload threads crash_at seed =
    let threads = threads_for workload threads in
    let spec =
      usage_guard (fun () ->
          Exp.Spec.make ~seed ~scheme ~workload ~threads ~ops:100_000 ())
    in
    let r = Exp.crash_check ~crash_at spec in
    Printf.printf
      "%s on %s: crashed at %.3f ms; recovery took %.3f ms simulated\n\
       (resumed=%d rolled_back=%d undone=%d replayed=%d pages=%d records=%d)\n\
       post-recovery integrity check: %s (count=%d)\n"
      (Scheme.name scheme) workload
      (float_of_int r.Exp.crashed_at /. 1e6)
      (float_of_int r.Exp.recovery.Ido_vm.Recover.simulated_time /. 1e6)
      r.Exp.recovery.Ido_vm.Recover.fases_resumed
      r.Exp.recovery.Ido_vm.Recover.fases_rolled_back
      r.Exp.recovery.Ido_vm.Recover.writes_undone
      r.Exp.recovery.Ido_vm.Recover.txns_replayed
      r.Exp.recovery.Ido_vm.Recover.pages_restored
      r.Exp.recovery.Ido_vm.Recover.records_scanned
      (if r.Exp.check_ok then "PASS" else "FAIL")
      r.Exp.check_count
  in
  Cmd.v
    (Cmd.info "crash" ~doc)
    Term.(const run $ scheme_arg $ workload_arg $ threads_arg $ crash_at $ seed_arg)

let trace_cmd =
  let doc = "Trace execution: one line per instruction (first N steps)." in
  let steps_arg =
    Arg.(value & opt int 400 & info [ "steps" ] ~doc:"Instructions to trace")
  in
  let run scheme workload steps seed =
    let program = Ido_workloads.Workload.named workload in
    let m = Ido_vm.Vm.create { (Ido_vm.Vm.config scheme) with seed } program in
    Ido_vm.Vm.run_init m;
    ignore (Ido_vm.Vm.spawn m ~fname:"worker" ~args:[ 10L ]);
    ignore (Ido_vm.Vm.spawn m ~fname:"worker" ~args:[ 10L ]);
    Ido_vm.Vm.set_tracer m (Some print_endline);
    ignore (Ido_vm.Vm.run ~max_steps:steps m)
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(const run $ scheme_arg $ workload_arg $ steps_arg $ seed_arg)

let regions_cmd =
  let doc = "Static region-plan summary for every function of a workload." in
  let run workload =
    let program = Ido_workloads.Workload.named workload in
    List.iter
      (fun (name, f) ->
        let cfg = Ido_analysis.Cfg.build f in
        match Ido_analysis.Fase.compute cfg with
        | Error e -> Printf.printf "%-14s invalid: %s
" name e
        | Ok fase ->
            if Ido_analysis.Fase.has_fase fase then begin
              let plan = Ido_instrument.Instrument.region_plan f in
              let required =
                List.length
                  (List.filter
                     (fun (c : Ido_analysis.Regions.cut) -> c.required)
                     plan.Ido_analysis.Regions.cuts)
              in
              Printf.printf
                "%-14s %2d regions (%d required, %d elidable), %d WAR pairs, %d hitting-set cuts
"
                name
                (List.length plan.Ido_analysis.Regions.cuts)
                required
                (List.length plan.Ido_analysis.Regions.cuts - required)
                plan.Ido_analysis.Regions.n_war_pairs
                plan.Ido_analysis.Regions.n_hitting
            end
            else Printf.printf "%-14s no FASEs
" name)
      program.Ido_ir.Ir.funcs
  in
  Cmd.v (Cmd.info "regions" ~doc) Term.(const run $ workload_arg)

let dump_cmd =
  let doc = "Print a workload's IR after instrumentation." in
  let run scheme workload =
    let program = Ido_workloads.Workload.named workload in
    let instrumented = Ido_instrument.Instrument.instrument scheme program in
    Format.printf "%a@." Ido_ir.Ir.pp_program instrumented
  in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const run $ scheme_arg $ workload_arg)

let all_cmd =
  let doc = "Regenerate every table and figure." in
  let run scale jobs =
    usage_guard @@ fun () ->
    Ido_util.Pool.with_jobs jobs (fun pool ->
        List.iter
          (fun (_, panel) ->
            print_string panel;
            print_newline ())
          (Figures.all ?pool scale))
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ scale_arg $ jobs_arg)

let profile_cmd =
  let doc =
    "One observed run: per-event rollups (flushes, fences, log bytes, \
     boundaries, lock traffic) tagged by FASE, reconciled against the pmem \
     counters, written as JSON."
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ]
          ~doc:
            "Output path for the JSON record (default BENCH_obs.json, or \
             BENCH_opt.json under --opt)")
  in
  let run scheme workload threads ops seed opt out =
    let threads = threads_for workload threads in
    let out =
      match out with
      | Some o -> o
      | None -> if opt then "BENCH_opt.json" else "BENCH_obs.json"
    in
    let spec =
      split_spec ~obs:true ~seed ~scheme ~workload ~threads ~total_ops:ops ()
    in
    let p = Exp.measure ~opt spec in
    let r = p.Exp.prun in
    let roll = p.Exp.rollup in
    let per_op n = float_of_int n /. float_of_int (max 1 r.Exp.ops) in
    let consistency =
      match p.Exp.consistency with Ok () -> "ok" | Error m -> m
    in
    let oc = open_out out in
    Printf.fprintf oc
      "{\n\
      \  \"scheme\": %S,\n\
      \  \"workload\": %S,\n\
      \  \"threads\": %d,\n\
      \  \"opt\": %b,\n\
      \  \"ops\": %d,\n\
      \  \"sim_ns\": %d,\n\
      \  \"mops\": %.3f,\n\
      \  \"fases\": %d,\n\
      \  \"rollup\": %s,\n\
      \  \"per_op\": {\"flushes\": %.3f, \"fences\": %.3f, \"log_bytes\": \
       %.1f},\n\
      \  \"consistency\": %S\n\
       }\n"
      (Scheme.name scheme) workload threads opt r.Exp.ops r.Exp.sim_ns
      r.Exp.mops p.Exp.fases
      (Ido_obs.Obs.rollup_to_json roll)
      (per_op roll.Ido_obs.Obs.flushes)
      (per_op roll.Ido_obs.Obs.fences)
      (per_op roll.Ido_obs.Obs.log_bytes)
      consistency;
    close_out oc;
    Printf.printf
      "%s on %s, %d threads: %d ops, %d FASEs; %.2f flushes/op, %.2f \
       fences/op, %.1f log bytes/op; obs/counters %s; wrote %s\n"
      (Scheme.name scheme) workload threads r.Exp.ops p.Exp.fases
      (per_op roll.Ido_obs.Obs.flushes)
      (per_op roll.Ido_obs.Obs.fences)
      (per_op roll.Ido_obs.Obs.log_bytes)
      (match p.Exp.consistency with
      | Ok () -> "consistent"
      | Error m -> "MISMATCH: " ^ m)
      out;
    if p.Exp.consistency <> Ok () then exit 1
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ threads_arg $ ops_arg $ seed_arg
      $ opt_arg $ out_arg)

let resolve_topology name =
  match Ido_serve.Topology.of_name name with
  | Ok t -> t
  | Error msg ->
      Printf.eprintf "ido_bench: %s\n" msg;
      exit 2

let serve_cmd =
  let doc =
    "Sharded request-serving benchmark over a declarative sweep: a seeded \
     open-loop generator streams requests by key hash to per-group \
     machines (nothing is materialised; latencies feed a constant-memory \
     quantile sketch); reports throughput and p50/p95/p99/max request \
     latency per (scheme x topology x batch) cell, with obs/counter \
     reconciliation on every machine.  --storm runs the fault matrix \
     instead: each cell is served under a deterministic single crash and \
     a correlated crash storm, with failover/resharding accounting and a \
     per-cell SLA verdict (recovery stall vs --sla budget).  Output is \
     byte-identical at every -j and --chunk.  BENCH_SCALE=full appends a \
     10M-request hmap/ido cell that runs in bounded RSS."
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ]
          ~doc:
            "Output path for the JSON record (default BENCH_serve.json; \
             BENCH_serve_opt.json under --opt; BENCH_serve_elastic.json \
             under --storm)")
  in
  let requests_arg =
    Arg.(
      value & opt int 2000
      & info [ "requests" ] ~doc:"Requests per cell (open-loop stream length)")
  in
  let period_arg =
    Arg.(
      value & opt int 1500
      & info [ "period" ] ~doc:"Mean inter-arrival gap (simulated ns)")
  in
  let uniform_arg =
    Arg.(
      value & flag
      & info [ "uniform" ] ~doc:"Uniform keys instead of Zipfian")
  in
  let zipf_arg =
    Arg.(
      value & opt float 0.99
      & info [ "zipf" ]
          ~doc:
            "Zipf exponent for the key distribution (must be positive and \
             not 1.0; ignored under --uniform)")
  in
  let schemes_arg =
    Term.(
      const (List.map resolve_scheme)
      $ Arg.(
          value
          & opt (list string) [ "ido"; "justdo" ]
          & info [ "schemes" ] ~doc:"Comma-separated scheme list"))
  in
  let topologies_arg =
    Term.(
      const (Option.map (List.map resolve_topology))
      $ Arg.(
          value
          & opt (some (list string)) None
          & info [ "topologies" ]
              ~doc:
                "Comma-separated topology list (s<groups>[r<replicas>]\
                 [sp|mg], e.g. s4,s4r1,s4sp); default s1,s4 — or s4,s4r1 \
                 under --storm"))
  in
  let batches_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "batches" ]
          ~doc:
            "Comma-separated batch sizes; default 1,8 — or 8 under --storm")
  in
  let storm_arg =
    Arg.(
      value & flag
      & info [ "storm" ]
          ~doc:
            "Serve every cell under the fault matrix (single crash + \
             correlated storm) and report per-cell SLA verdicts")
  in
  let sla_arg =
    Arg.(
      value & opt int 50_000
      & info [ "sla" ]
          ~doc:
            "Recovery budget (simulated ns): the largest single stall a \
             cell may incur and still pass its SLA verdict")
  in
  let chunk_arg =
    Arg.(
      value & opt int 1
      & info [ "chunk" ]
          ~doc:
            "Units per pool task within a cell (default 1: one task per \
             group unit; 0 = auto-size).  Cells are byte-identical at \
             every chunk size.")
  in
  let run workload seed requests period uniform zipf opt jobs chunk schemes
      topologies batches storm sla out =
    let out =
      match out with
      | Some o -> o
      | None ->
          if storm then "BENCH_serve_elastic.json"
          else if opt then "BENCH_serve_opt.json"
          else "BENCH_serve.json"
    in
    let topologies =
      match topologies with
      | Some ts -> ts
      | None ->
          usage_guard (fun () ->
              if storm then
                [
                  Ido_serve.Topology.static 4;
                  Ido_serve.Topology.replicated ~replicas:1 4;
                ]
              else [ Ido_serve.Topology.static 1; Ido_serve.Topology.static 4 ])
    in
    let batches =
      match batches with Some bs -> bs | None -> if storm then [ 8 ] else [ 1; 8 ]
    in
    let sweep_spec =
      {
        (Ido_serve.Sweep.default ~workload) with
        Ido_serve.Sweep.seed;
        requests;
        period_ns = period;
        zipf = (if uniform then None else Some zipf);
        opt;
        schemes;
        topologies;
        batches;
      }
    in
    usage_guard @@ fun () ->
    if sla < 0 then
      invalid_arg (Printf.sprintf "sla must be >= 0 (got %d)" sla);
    let configs = Ido_serve.Sweep.cells sweep_spec in
    Ido_util.Pool.with_jobs jobs (fun pool ->
        let faults config =
          if storm then
            [ Ido_serve.Fault.single_crash config; Ido_serve.Fault.storm config ]
          else [ Ido_serve.Fault.none ]
        in
        let sweep =
          List.concat_map
            (fun config ->
              List.map
                (fun fault ->
                  Ido_serve.Serve.run_cell ?pool ~chunk ~obs:true ~fault
                    config)
                (faults config))
            configs
        in
        (* BENCH_SCALE=full: one 10M-request cell — the constant-memory
           acceptance run (streaming generator + sketch + arena
           recycling keep RSS flat; CI pins it with ulimit -v).  hmap
           updates keys in place, so its region footprint is bounded by
           the key range, not the request count.  No obs sink: the
           sweep cells above already reconcile every scheme, and the
           per-event hook would dominate host time at this scale. *)
        let scale_cells =
          match Sys.getenv_opt "BENCH_SCALE" with
          | Some "full" ->
              let spec =
                {
                  sweep_spec with
                  Ido_serve.Sweep.workload = "hmap";
                  requests = 10_000_000;
                  schemes = [ Scheme.Ido ];
                  topologies = [ Ido_serve.Topology.static 4 ];
                  batches = [ 8 ];
                }
              in
              List.map
                (fun config -> Ido_serve.Serve.run_cell ?pool ~chunk config)
                (Ido_serve.Sweep.cells spec)
          | _ -> []
        in
        let cells = sweep @ scale_cells in
        print_string (Ido_serve.Report.render cells);
        print_newline ();
        if storm then
          print_endline (Ido_serve.Report.sla_verdicts ~budget_ns:sla cells);
        let oc = open_out out in
        output_string oc (Ido_serve.Report.to_json cells);
        output_char oc '\n';
        close_out oc;
        let bad c =
          c.Ido_serve.Serve.oracle <> Ok ()
          || c.Ido_serve.Serve.consistency <> Ok ()
        in
        Printf.printf "wrote %s (%d cells)\n" out (List.length cells);
        (* The paper-consistent ordering, restated as queueing: on
           every matched fault-free (topology x batch) cell, JUSTDO's
           log-everything critical sections must stretch the tail
           beyond iDO's.  CI greps for the "ok" verdict.  Vacuously ok
           when the scheme list doesn't pair ido with justdo. *)
        let p99 scheme topology batch =
          List.find_map
            (fun c ->
              let g = c.Ido_serve.Serve.config in
              if
                g.Ido_serve.Config.scheme = scheme
                && g.Ido_serve.Config.topology = topology
                && g.Ido_serve.Config.batch = batch
                && c.Ido_serve.Serve.fault.Ido_serve.Fault.label = "none"
              then Some c.Ido_serve.Serve.stats.Ido_serve.Lat.p99
              else None)
            sweep
        in
        let pairs =
          List.concat_map
            (fun t -> List.map (fun b -> (t, b)) batches)
            topologies
        in
        let matched, ordered =
          List.fold_left
            (fun (m, o) (t, b) ->
              match (p99 Scheme.Justdo t b, p99 Scheme.Ido t b) with
              | Some j, Some i -> (m + 1, if j > i then o + 1 else o)
              | _ -> (m, o))
            (0, 0) pairs
        in
        Printf.printf "tail ordering: %s (justdo p99 > ido p99 on %d/%d cells)\n"
          (if ordered = matched then "ok" else "INVERTED")
          ordered matched;
        if List.exists bad cells then begin
          prerr_endline "ido_bench serve: oracle or obs reconciliation failure";
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ Term.(
          const resolve_workload
          $ Arg.(
              value & opt string "kvcache50"
              & info [ "workload" ] ~doc:"Served workload"))
      $ seed_arg $ requests_arg $ period_arg $ uniform_arg $ zipf_arg
      $ opt_arg $ jobs_arg $ chunk_arg $ schemes_arg $ topologies_arg
      $ batches_arg $ storm_arg $ sla_arg $ out_arg)

let () =
  let cmds =
    [
      figure_cmd "fig5" "Memcached-like throughput (Fig. 5)" Figures.fig5;
      figure_cmd "fig6" "Redis-like throughput (Fig. 6)" Figures.fig6;
      figure_cmd "fig7" "Microbenchmark scalability (Fig. 7)" Figures.fig7;
      figure_cmd "fig8" "Region characteristics (Fig. 8)" Figures.fig8;
      figure_cmd "table1" "Recovery time ratios (Table I)" Figures.table1;
      figure_cmd "fig9" "NVM latency sensitivity (Fig. 9)" Figures.fig9;
      figure_cmd "table2" "System properties (Table II)"
        (fun ?pool:_ _ -> Figures.table2 ());
      figure_cmd "ablation" "Design-choice and machine-model ablations" Figures.ablation;
      run_cmd;
      crash_cmd;
      trace_cmd;
      regions_cmd;
      dump_cmd;
      all_cmd;
      profile_cmd;
      serve_cmd;
    ]
  in
  let info = Cmd.info "ido_bench" ~doc:"iDO reproduction experiment driver" in
  (* A scheme log overflowing its fixed capacity is a bounded-resource
     verdict on the requested run, not a driver crash: render the
     typed diagnostic instead of a backtrace. *)
  exit
    (try Cmd.eval ~catch:false (Cmd.group info cmds)
     with
     | Sys_error msg ->
         (* Unwritable --out: a usage problem, one line on stderr
            and exit 2, never a backtrace. *)
         Printf.eprintf "ido_bench: %s\n" msg;
         2
     | Lognode.Log_overflow ov ->
       Printf.eprintf "ido_bench: %s\n"
         (Ido_analysis.Diag.render
            (Ido_analysis.Diag.vf ~func:"runtime" ~code:"R601"
               "%s: %s log overflow on thread %d (capacity %d)"
               ov.Lognode.scheme ov.Lognode.log ov.Lognode.tid
               ov.Lognode.capacity));
       3)
