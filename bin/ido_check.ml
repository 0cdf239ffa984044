(* Crash-matrix checker: enumerate (or sample) every power-failure
   instant of a workload run, recover, and validate the image against
   the workload's pure model.  Exit status 0 = no violations. *)

open Cmdliner
open Ido_runtime
open Ido_check

(* Unknown scheme/workload names are usage errors: report them on
   stderr with the valid names and exit 2 (scripts distinguish "you
   typo'd the name" from crashes and from oracle violations). *)
let die_unknown what name valid =
  Printf.eprintf "ido_check: unknown %s %S (valid: %s)\n" what name
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
        value & opt string "queue"
        & info [ "workload" ] ~doc:"Workload program"))

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed")

let threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~doc:"Worker threads (default 3; 1 for objstore)")

let ops_arg =
  Arg.(value & opt int 60 & info [ "ops" ] ~doc:"Operations per worker thread")

let cache_lines_arg =
  Arg.(
    value & opt int 4096
    & info [ "cache-lines" ] ~doc:"Volatile dirty-line capacity")

let oracle_conv =
  Arg.enum
    (("auto", None)
    :: List.map
         (fun m -> (Ido_workloads.Oracle.mode_name m, Some m))
         Ido_workloads.Oracle.[ Atomic; Prefix ])

let oracle_arg =
  Arg.(
    value & opt oracle_conv None
    & info [ "oracle" ]
        ~doc:
          "Oracle strictness: auto (atomic for instrumented schemes, prefix \
           for origin), atomic, or prefix")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Shorthand for --oracle atomic (even for origin)")

let opt_arg =
  Arg.(
    value & flag
    & info [ "opt" ]
        ~doc:
          "Run the persistence-redundancy optimizer over the instrumented \
           program before executing")

let jobs_arg =
  Arg.(
    value
    & opt int (Ido_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for parallel work (default: the machine's \
           recommended domain count; 1 = serial).  Reports are \
           byte-identical at every -j.")

let chunk_arg =
  Arg.(
    value & opt int 0
    & info [ "chunk" ]
        ~doc:
          "Work items per pool task: 0 = auto-size from the item count and \
           -j, 1 = one task per item.  Results are byte-identical at every \
           chunk size.")

let spec_of ?(opt = false) scheme workload seed threads ops cache_lines oracle
    strict =
  Option.iter
    (Ido_workloads.Workload.(check_threads (get workload)))
    threads;
  let spec =
    Engine.defaults ?threads ~ops ~cache_lines ~strict ~seed ~opt ~scheme
      ~workload ()
  in
  match oracle with None -> spec | Some m -> { spec with oracle_mode = m }

let overflow_diag (ov : Lognode.overflow) =
  Ido_analysis.Diag.vf ~func:"runtime" ~code:"R601"
    "%s: %s log overflow on thread %d (capacity %d)" ov.Lognode.scheme
    ov.Lognode.log ov.Lognode.tid ov.Lognode.capacity

(* Bad spec combinations (unsupported scheme x workload pair,
   nonsensical budget) surface as [Invalid_argument]; report them as
   the usage errors they are rather than as uncaught exceptions.  A
   scheme log overflowing its fixed capacity is a bounded-resource
   verdict on the run, not a crash: render it as a diagnostic.  An
   unwritable --out path or an unreadable or malformed --replay file
   raises [Sys_error] / [Trace.Malformed]: an environment/usage
   problem, reported like an unknown name (exit 2), never a
   backtrace. *)
(* Config construction inside a command body is usage validation (Zipf
   exponents, topology shapes): exit 2 like the name resolvers, not
   [guard]'s generic Invalid_argument status. *)
let usage f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "ido_check: %s\n" msg;
    exit 2

let zipf_arg =
  Arg.(
    value & opt float 0.99
    & info [ "zipf" ]
        ~doc:
          "Zipf exponent for the serving key distribution (must be \
           positive and not 1.0)")

let guard f =
  try f () with
  | Invalid_argument msg ->
      Printf.eprintf "ido_check: %s\n" msg;
      Cmd.Exit.cli_error
  | Sys_error msg | Trace.Malformed msg ->
      Printf.eprintf "ido_check: %s\n" msg;
      2
  | Lognode.Log_overflow ov ->
      Printf.eprintf "ido_check: %s\n"
        (Ido_analysis.Diag.render (overflow_diag ov));
      3
  | Ido_opt.Opt.Opt_violation msg ->
      Printf.eprintf "ido_check: OPTIMIZATION VIOLATION\n%s\n" msg;
      1

let pp_injection (inj : Engine.injection) =
  Printf.printf "  index %d (%s): %s\n" inj.index
    (Option.value inj.event ~default:"terminal; crash at idle")
    (match inj.verdict with Ok () -> "ok" | Error m -> "VIOLATION: " ^ m)

let explore_cmd =
  let doc = "Explore the crash-point space of one scheme x workload pair." in
  let budget_arg =
    Arg.(value & opt int 500 & info [ "budget" ] ~doc:"Max injected crashes")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every injection")
  in
  let run scheme workload seed threads ops cache_lines oracle strict opt budget
      verbose =
    guard @@ fun () ->
    let spec =
      spec_of ~opt scheme workload seed threads ops cache_lines oracle strict
    in
    let last = ref 0 in
    let progress k n =
      (* One status line per ~5% on a terminal-unfriendly stream. *)
      if verbose || (k * 20 / n) > (!last * 20 / n) || k = n then begin
        Printf.eprintf "\r  injected %d/%d crashes" k n;
        if k = n then prerr_newline ();
        flush stderr
      end;
      last := k
    in
    let r = Engine.explore ~progress spec ~budget in
    Printf.printf
      "%s on %s: %d events in schedule; tested %d crash points (%s), %d \
       violation(s)\n"
      (Scheme.name scheme) workload r.Engine.total_events r.Engine.tested
      (if r.Engine.exhaustive then "exhaustive" else "stratified sample")
      (List.length r.Engine.violations);
    if verbose then List.iter pp_injection r.Engine.violations;
    match r.Engine.counterexample with
    | None ->
        print_endline "no oracle violations";
        0
    | Some inj ->
        pp_injection inj;
        Printf.printf "repro: %s\n" (Engine.repro_line spec inj.Engine.index);
        1
  in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ seed_arg $ threads_arg $ ops_arg
      $ cache_lines_arg $ oracle_arg $ strict_arg $ opt_arg $ budget_arg
      $ verbose_arg)

let replay_cmd =
  let doc = "Replay a single crash index from a repro line." in
  let index_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "index" ] ~doc:"Crash just before this event index")
  in
  let run scheme workload seed threads ops cache_lines oracle strict opt index =
    guard @@ fun () ->
    let spec =
      spec_of ~opt scheme workload seed threads ops cache_lines oracle strict
    in
    let inj = Engine.inject spec index in
    pp_injection inj;
    match inj.Engine.verdict with Ok () -> 0 | Error _ -> 1
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ seed_arg $ threads_arg $ ops_arg
      $ cache_lines_arg $ oracle_arg $ strict_arg $ opt_arg $ index_arg)

let schedule_cmd =
  let doc = "Print the recorded persist-event schedule (for debugging)." in
  let limit_arg =
    Arg.(value & opt int 100 & info [ "limit" ] ~doc:"Events to print")
  in
  let run scheme workload seed threads ops cache_lines oracle strict limit =
    guard @@ fun () ->
    if limit < 0 then
      invalid_arg (Printf.sprintf "limit must be >= 0 (got %d)" limit);
    let spec = spec_of scheme workload seed threads ops cache_lines oracle strict in
    let evs = Engine.record spec in
    Printf.printf "%d events\n" (Array.length evs);
    Array.iteri
      (fun i e ->
        if i < limit then Printf.printf "%6d %s\n" i (Ido_obs.Obs.describe e))
      evs;
    0
  in
  Cmd.v
    (Cmd.info "schedule" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ seed_arg $ threads_arg $ ops_arg
      $ cache_lines_arg $ oracle_arg $ strict_arg $ limit_arg)

let pp_traced (tr : Engine.traced) =
  Printf.printf "%s on %s: %d events%s\n"
    (Scheme.name tr.Engine.t_spec.Engine.scheme)
    tr.Engine.t_spec.Engine.workload
    (Ido_obs.Obs.count tr.Engine.t_obs)
    (match tr.Engine.t_index with
    | None -> " (crash-free)"
    | Some k -> Printf.sprintf ", crash injected at index %d" k);
  (match tr.Engine.t_injection with Some inj -> pp_injection inj | None -> ());
  Printf.printf "digest %s\n" tr.Engine.t_digest;
  Printf.printf "obs/counters: %s\n"
    (match tr.Engine.t_consistency with
    | Ok () -> "consistent"
    | Error m -> "MISMATCH: " ^ m)

let traced_ok (tr : Engine.traced) =
  tr.Engine.t_consistency = Ok ()
  && match tr.Engine.t_injection with
     | Some { Engine.verdict = Error _; _ } -> false
     | _ -> true

let trace_cmd =
  let doc =
    "Record one fully-observed run as an NDJSON trace (events tagged with \
     thread and FASE ids, digest and obs/counters reconciliation in the \
     footer), or replay a trace from its header alone and check the digest \
     reproduces."
  in
  let index_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ]
          ~doc:
            "Crash just before this event index (omit for a crash-free \
             run)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~doc:"Write the NDJSON trace to this file")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ]
          ~doc:
            "Ignore the spec options: re-run the spec recorded in this \
             trace file's header and compare digests (exit 0 iff they \
             match and the rollup reconciles)")
  in
  let run scheme workload seed threads ops cache_lines oracle strict opt index
      replay_file out =
    guard @@ fun () ->
    match replay_file with
    | Some path ->
        let s = Trace.load path in
        let tr = Trace.replay s in
        (match out with Some o -> Trace.save tr o | None -> ());
        pp_traced tr;
        let matches = String.equal s.Trace.digest tr.Engine.t_digest in
        Printf.printf "recorded digest %s: %s\n" s.Trace.digest
          (if matches then "match" else "MISMATCH");
        if matches && tr.Engine.t_consistency = Ok () then 0 else 1
    | None ->
        let spec =
          spec_of ~opt scheme workload seed threads ops cache_lines oracle
            strict
        in
        let tr = Engine.run_traced ?index spec in
        (match out with
        | Some o ->
            Trace.save tr o;
            Printf.printf "wrote %s\n" o
        | None -> ());
        pp_traced tr;
        if traced_ok tr then 0 else 1
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ seed_arg $ threads_arg $ ops_arg
      $ cache_lines_arg $ oracle_arg $ strict_arg $ opt_arg $ index_arg
      $ replay_arg $ out_arg)

let pp_diag d = print_endline ("  " ^ Ido_analysis.Diag.render d)

let lint_cmd =
  let doc =
    "Statically lint instrumented workloads: hook-contract conformance, \
     persist-order abstract interpretation, lockset checking.  With no \
     selection, sweeps every supported scheme x workload pair.  Exit \
     status 0 = no diagnostics."
  in
  let all_scheme_arg =
    Term.(
      const (Option.map resolve_scheme)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "scheme" ] ~doc:"Restrict to one scheme (default: all)"))
  in
  let all_workload_arg =
    Term.(
      const (Option.map resolve_workload)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "workload" ] ~doc:"Restrict to one workload (default: all)"))
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Append the code table to the report")
  in
  let mutant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ]
          ~doc:
            "Lint the named seeded-bug mutant instead of the shipped \
             program (the exit status then demonstrates the failure \
             path)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit diagnostics as one NDJSON object per line \
             (func/pos/code/message, byte-stable) instead of the text \
             report")
  in
  let run scheme workload explain mutant json jobs chunk =
    guard @@ fun () ->
    let pp_json d = print_endline (Ido_analysis.Diag.json d) in
    match mutant with
    | Some n -> (
        match Ido_lint.Mutate.find n with
        | None -> invalid_arg (Printf.sprintf "unknown mutant %S" n)
        | Some m ->
            let o = Lintrun.run_mutant m in
            if json then List.iter pp_json o.Lintrun.mdiags
            else begin
              Printf.printf "%s on %s (mutant %s): %d diagnostic(s)\n"
                (Scheme.name m.Ido_lint.Mutate.scheme)
                m.Ido_lint.Mutate.workload m.Ido_lint.Mutate.name
                (List.length o.Lintrun.mdiags);
              List.iter pp_diag o.Lintrun.mdiags
            end;
            if o.Lintrun.mdiags = [] then 0 else 1)
    | None ->
    let schemes = match scheme with Some s -> [ s ] | None -> Scheme.all in
    let workloads =
      match workload with
      | Some w -> [ w ]
      | None -> Ido_workloads.Workload.names
    in
    let pairs =
      Ido_util.Pool.with_jobs jobs (fun pool ->
          Lintrun.sweep ?pool ~chunk ~schemes ~workloads ())
    in
    let dirty = List.filter (fun p -> p.Lintrun.diags <> []) pairs in
    if json then
      List.iter (fun (p : Lintrun.pair) -> List.iter pp_json p.diags) dirty
    else begin
      List.iter
        (fun (p : Lintrun.pair) ->
          Printf.printf "%s on %s: %d diagnostic(s)\n" (Scheme.name p.scheme)
            p.workload
            (List.length p.diags);
          List.iter pp_diag p.diags)
        dirty;
      Printf.printf "linted %d pair(s): %d clean, %d with diagnostics\n"
        (List.length pairs)
        (List.length pairs - List.length dirty)
        (List.length dirty);
      if explain then
        List.iter
          (fun (c, s) -> Printf.printf "  %s  %s\n" c s)
          Ido_lint.Lint.codes
    end;
    if dirty = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run $ all_scheme_arg $ all_workload_arg $ explain_arg $ mutant_arg
      $ json_arg $ jobs_arg $ chunk_arg)

let mutants_cmd =
  let doc =
    "Run the seeded-bug mutation corpus through the linter and check that \
     every mutant is reported with its expected error code.  Exit status 0 \
     = all caught."
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~doc:"Run a single mutant by name (default: all)")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print every mutant's diagnostics")
  in
  let run name verbose jobs chunk =
    guard @@ fun () ->
    let outcomes =
      match name with
      | Some n -> (
          match Ido_lint.Mutate.find n with
          | Some m -> [ Lintrun.run_mutant m ]
          | None -> invalid_arg (Printf.sprintf "unknown mutant %S" n))
      | None ->
          Ido_util.Pool.with_jobs jobs (fun pool ->
              Lintrun.run_corpus ?pool ~chunk ())
    in
    List.iter
      (fun (o : Lintrun.outcome) ->
        Printf.printf "%-28s %s on %-8s expect %s: %s\n" o.mutant.Ido_lint.Mutate.name
          (Scheme.name o.mutant.Ido_lint.Mutate.scheme)
          o.mutant.Ido_lint.Mutate.workload o.mutant.Ido_lint.Mutate.expect
          (if o.caught then "caught" else "MISSED");
        if verbose || not o.caught then List.iter pp_diag o.mdiags)
      outcomes;
    let missed = List.filter (fun o -> not o.Lintrun.caught) outcomes in
    Printf.printf "%d mutant(s): %d caught, %d missed\n" (List.length outcomes)
      (List.length outcomes - List.length missed)
      (List.length missed);
    if missed = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "mutants" ~doc)
    Term.(const run $ name_arg $ verbose_arg $ jobs_arg $ chunk_arg)

let fuzz_cmd =
  let doc =
    "Coverage-guided fuzzing over persist-event traces: seed with clean \
     workloads (and random-CFG genomes), enumerate the single-edit \
     instrumentation bug space, then mutate the live corpus keeping inputs \
     whose coverage digest is novel.  Findings are shrunk to minimal \
     reproducers and stored in a replayable NDJSON corpus.  Deterministic \
     under --seed at every -j.  Exit status: 0 = no organic (non-seeded) \
     failure; with --rediscover, 0 = at least --min-found seeded mutants \
     re-found."
  in
  let fseed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed")
  in
  let budget_arg =
    Arg.(
      value & opt int 4000
      & info [ "budget" ] ~doc:"Candidate executions across all stages")
  in
  let fscheme_arg =
    Term.(
      const (Option.map resolve_scheme)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "scheme" ]
              ~doc:"Restrict to one scheme (default: all but origin)"))
  in
  let fworkload_arg =
    Term.(
      const (Option.map resolve_workload)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "workload" ] ~doc:"Restrict to one workload (default: all)"))
  in
  let rediscover_arg =
    Arg.(
      value & flag
      & info [ "rediscover" ]
          ~doc:
            "Seed from clean workloads only and report which seeded \
             mutation-corpus bugs the campaign re-finds unaided")
  in
  let min_found_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-found" ]
          ~doc:
            "With --rediscover: minimum mutants to re-find for exit 0 \
             (default: the whole corpus)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~doc:"Write the NDJSON corpus to this file")
  in
  let shrink_arg =
    Arg.(
      value & opt int 200
      & info [ "shrink-budget" ] ~doc:"Extra executions per finding")
  in
  let run seed budget scheme workload rediscover min_found out shrink_budget
      opt jobs chunk =
    guard @@ fun () ->
    (match min_found with
    | Some n when n < 0 ->
        invalid_arg (Printf.sprintf "min-found must be >= 0 (got %d)" n)
    | _ -> ());
    let d = Ido_fuzz.Fuzz.default_config in
    let config =
      {
        Ido_fuzz.Fuzz.seed;
        budget;
        rediscover;
        shrink_budget;
        opt;
        schemes =
          (match scheme with
          | Some s -> [ s ]
          | None -> d.Ido_fuzz.Fuzz.schemes);
        workloads =
          (match workload with
          | Some w -> [ w ]
          | None -> d.Ido_fuzz.Fuzz.workloads);
      }
    in
    let r =
      Ido_util.Pool.with_jobs jobs (fun pool ->
          Ido_fuzz.Fuzz.run ?pool ~chunk config)
    in
    (match out with
    | Some path ->
        Ido_fuzz.Corpus.save r.Ido_fuzz.Fuzz.r_corpus path;
        Printf.printf "wrote %s (%d entries)\n" path
          (List.length r.Ido_fuzz.Fuzz.r_corpus.Ido_fuzz.Corpus.c_entries)
    | None -> ());
    print_string (Ido_fuzz.Fuzz.render r);
    if rediscover then begin
      let found, total = Ido_fuzz.Fuzz.found_count r in
      let need = Option.value min_found ~default:total in
      if found >= need then 0 else 1
    end
    else if Ido_fuzz.Fuzz.organic r = [] then 0
    else 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ fseed_arg $ budget_arg $ fscheme_arg $ fworkload_arg
      $ rediscover_arg $ min_found_arg $ out_arg $ shrink_arg $ opt_arg
      $ jobs_arg $ chunk_arg)

let optimize_cmd =
  let doc =
    "Run the persistence-redundancy optimizer over every supported scheme x \
     workload pair, enforce each rewrite's obligations (re-lint clean, full \
     crash matrix with identical oracles, digest equality, rollup \
     reconciliation within the declared delta classes), and report the \
     clwb+fence events eliminated per cell.  Byte-identical output at every \
     -j and --chunk.  Exit status 0 = all obligations held."
  in
  let all_scheme_arg =
    Term.(
      const (Option.map resolve_scheme)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "scheme" ] ~doc:"Restrict to one scheme (default: all)"))
  in
  let all_workload_arg =
    Term.(
      const (Option.map resolve_workload)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "workload" ] ~doc:"Restrict to one workload (default: all)"))
  in
  let budget_arg =
    Arg.(
      value & opt int 300
      & info [ "budget" ]
          ~doc:"Max injected crashes per cell's obligation matrix")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print every applied rewrite")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Append the O1xx rewrite table to the report")
  in
  let run scheme workload budget verbose explain jobs chunk =
    guard @@ fun () ->
    let schemes = match scheme with Some s -> [ s ] | None -> Scheme.all in
    let workloads =
      match workload with
      | Some w -> [ w ]
      | None -> Ido_workloads.Workload.names
    in
    let cells =
      Ido_util.Pool.with_jobs jobs (fun pool ->
          Optrun.sweep ?pool ~chunk ~schemes ~workloads ~budget ())
    in
    print_string (Optrun.render cells);
    if verbose then
      List.iter
        (fun (c : Optrun.cell) ->
          List.iter
            (fun r -> print_endline ("  " ^ Ido_opt.Rewrite.render r))
            c.Optrun.o_rewrites)
        cells;
    if explain then
      List.iter
        (fun (code, s) -> Printf.printf "  %s  %s\n" code s)
        Ido_opt.Rewrite.codes;
    0
  in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run $ all_scheme_arg $ all_workload_arg $ budget_arg $ verbose_arg
      $ explain_arg $ jobs_arg $ chunk_arg)

let serve_crash_cmd =
  let doc =
    "Power-fail one shard mid-stream during a sharded serving run, recover \
     it, finish serving the stream, and re-validate every shard's oracle \
     and obs/counter reconciliation.  The crash point is planned from the \
     per-shard request counts alone (no stream is materialised), so the \
     check scales to arbitrarily long streams.  Exit status 0 = all \
     shards clean."
  in
  let shards_arg =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Key-hash shards")
  in
  let batch_arg =
    Arg.(value & opt int 8 & info [ "batch" ] ~doc:"Max requests per dispatch")
  in
  let requests_arg =
    Arg.(value & opt int 1200 & info [ "requests" ] ~doc:"Total requests")
  in
  let run scheme workload seed shards batch requests zipf jobs chunk =
    guard @@ fun () ->
    let config =
      usage @@ fun () ->
      Ido_serve.Config.make ~seed
        ~topology:(Ido_serve.Topology.static shards)
        ~batch ~requests ~zipf ~workload ~scheme ()
    in
    let fault = Ido_serve.Fault.single_crash config in
    let cell =
      Ido_util.Pool.with_jobs jobs (fun pool ->
          Ido_serve.Serve.run_cell ?pool ~chunk ~obs:true ~fault config)
    in
    let pp_result = function Ok () -> "ok" | Error m -> "FAIL: " ^ m in
    List.iter
      (function
        | Ido_serve.Fault.Crash crash ->
            Printf.printf
              "%s: crash on shard %d at request %d (+%d ns into its batch)\n"
              (Ido_serve.Config.label config)
              crash.Ido_serve.Fault.shard crash.Ido_serve.Fault.at_request
              crash.Ido_serve.Fault.after_ns
        | _ -> ())
      fault.Ido_serve.Fault.events;
    List.iter
      (fun (o : Ido_serve.Shard.outcome) ->
        Printf.printf
          "  shard %d: served %d, dropped %d%s; oracle %s; obs %s\n"
          o.Ido_serve.Shard.group o.Ido_serve.Shard.served
          o.Ido_serve.Shard.dropped
          (if o.Ido_serve.Shard.crashes > 0 then
             Printf.sprintf " (crashed; recovery %d ns)"
               o.Ido_serve.Shard.recovery_ns
           else "")
          (pp_result o.Ido_serve.Shard.oracle)
          (pp_result o.Ido_serve.Shard.consistency))
      cell.Ido_serve.Serve.shards;
    let crashed_somewhere =
      List.exists
        (fun o -> o.Ido_serve.Shard.crashes > 0)
        cell.Ido_serve.Serve.shards
    in
    if not crashed_somewhere then begin
      print_endline "serve-crash: no shard crashed (stream too short?)";
      1
    end
    else if
      cell.Ido_serve.Serve.oracle = Ok ()
      && cell.Ido_serve.Serve.consistency = Ok ()
    then begin
      print_endline "all shards recovered consistent";
      0
    end
    else 1
  in
  Cmd.v
    (Cmd.info "serve-crash" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ seed_arg $ shards_arg $ batch_arg
      $ requests_arg $ zipf_arg $ jobs_arg $ chunk_arg)

let serve_failover_cmd =
  let doc =
    "Power-fail a replicated group's primary mid-stream and require the \
     warm replica to absorb it: the promoted replica replays only the \
     unacknowledged batch tail, every request is served (zero dropped, \
     some replayed), and every surviving machine's oracle and \
     obs/counter reconciliation stay clean.  Exit status 0 = failover \
     fully absorbed the crash."
  in
  let topology_arg =
    Arg.(
      value & opt string "s4r1"
      & info [ "topology" ]
          ~doc:
            "Serving topology (s<groups>[r<replicas>][sp|mg]); needs at \
             least one replica")
  in
  let batch_arg =
    Arg.(value & opt int 8 & info [ "batch" ] ~doc:"Max requests per dispatch")
  in
  let requests_arg =
    Arg.(value & opt int 1200 & info [ "requests" ] ~doc:"Total requests")
  in
  let run scheme workload seed topology batch requests zipf jobs chunk =
    guard @@ fun () ->
    let topology =
      match Ido_serve.Topology.of_name topology with
      | Ok t when t.Ido_serve.Topology.replicas >= 1 -> t
      | Ok t ->
          Printf.eprintf
            "ido_check: serve-failover needs a replicated topology (got %s \
             with 0 replicas)\n"
            (Ido_serve.Topology.name t);
          exit 2
      | Error msg ->
          Printf.eprintf "ido_check: %s\n" msg;
          exit 2
    in
    let config =
      usage @@ fun () ->
      Ido_serve.Config.make ~seed ~topology ~batch ~requests ~zipf ~workload
        ~scheme ()
    in
    let fault = Ido_serve.Fault.single_crash config in
    let cell =
      Ido_util.Pool.with_jobs jobs (fun pool ->
          Ido_serve.Serve.run_cell ?pool ~chunk ~obs:true ~fault config)
    in
    let pp_result = function Ok () -> "ok" | Error m -> "FAIL: " ^ m in
    Printf.printf "%s under %s (detect %d ns)\n"
      (Ido_serve.Config.label config)
      fault.Ido_serve.Fault.label fault.Ido_serve.Fault.detect_ns;
    List.iter
      (fun (o : Ido_serve.Shard.outcome) ->
        Printf.printf
          "  group %d: served %d (replayed %d), dropped %d, failovers %d; \
           oracle %s; obs %s\n"
          o.Ido_serve.Shard.group o.Ido_serve.Shard.served
          o.Ido_serve.Shard.replayed o.Ido_serve.Shard.dropped
          o.Ido_serve.Shard.failovers
          (pp_result o.Ido_serve.Shard.oracle)
          (pp_result o.Ido_serve.Shard.consistency))
      cell.Ido_serve.Serve.shards;
    Printf.printf "unavailability %d ns (max single stall %d ns)\n"
      cell.Ido_serve.Serve.unavail_ns cell.Ido_serve.Serve.max_stall_ns;
    let failovers =
      List.fold_left
        (fun a (o : Ido_serve.Shard.outcome) -> a + o.Ido_serve.Shard.failovers)
        0 cell.Ido_serve.Serve.shards
    in
    let dropped =
      List.fold_left
        (fun a (o : Ido_serve.Shard.outcome) -> a + o.Ido_serve.Shard.dropped)
        0 cell.Ido_serve.Serve.shards
    in
    let fail msg =
      print_endline ("serve-failover: " ^ msg);
      1
    in
    if failovers < 1 then fail "no failover happened (stream too short?)"
    else if dropped > 0 then
      fail (Printf.sprintf "%d requests dropped despite a warm replica" dropped)
    else if cell.Ido_serve.Serve.replayed < 1 then
      fail "no requests replayed (crash missed every in-flight batch?)"
    else if
      cell.Ido_serve.Serve.oracle = Ok ()
      && cell.Ido_serve.Serve.consistency = Ok ()
    then begin
      print_endline "failover absorbed the crash: zero dropped, all consistent";
      0
    end
    else 1
  in
  Cmd.v
    (Cmd.info "serve-failover" ~doc)
    Term.(
      const run $ scheme_arg $ workload_arg $ seed_arg $ topology_arg
      $ batch_arg $ requests_arg $ zipf_arg $ jobs_arg $ chunk_arg)

let () =
  let info =
    Cmd.info "ido_check"
      ~doc:
        "Systematic crash-point exploration and static crash-consistency \
         linting with per-workload oracles"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            explore_cmd; replay_cmd; schedule_cmd; trace_cmd; lint_cmd;
            mutants_cmd; fuzz_cmd; optimize_cmd; serve_crash_cmd;
            serve_failover_cmd;
          ]))
