(* Static crash-consistency linter: the mutation corpus must be caught
   by its expected stable codes, the shipped workloads must lint clean
   under every supported scheme, and — the bridge to PR 1 — random
   programs the linter passes must also pass the dynamic crash matrix.

   Hand-built programs cover the lockset checks (L501/L502/L503),
   whose triggers the shipped workloads deliberately avoid. *)

open Ido_ir
open Ido_runtime
module Wcommon = Ido_workloads.Wcommon
module Instrument = Ido_instrument.Instrument
module Lint = Ido_lint.Lint
module Mutate = Ido_lint.Mutate
module Lintrun = Ido_check.Lintrun

let qtest = QCheck_alcotest.to_alcotest

let codes_of diags =
  List.sort_uniq compare
    (List.map (fun d -> d.Ido_analysis.Diag.code) diags)

(* ------------------------------------------------------------------ *)
(* Mutation corpus: every seeded bug is caught, by its expected code.  *)

let corpus_caught () =
  List.iter
    (fun (o : Lintrun.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reports %s (got %s)" o.mutant.Mutate.name
           o.mutant.Mutate.expect
           (String.concat "," (codes_of o.mdiags)))
        true o.caught;
      (* the CLI failure path: a seeded bug means a nonzero exit *)
      Alcotest.(check bool)
        (o.mutant.Mutate.name ^ " yields a nonempty report")
        false (o.mdiags = []))
    (Lintrun.run_corpus ())

let corpus_names_unique () =
  let names = List.map (fun m -> m.Mutate.name) Mutate.corpus in
  Alcotest.(check int)
    "mutant names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let corpus_codes_documented () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Mutate.name ^ " expects a documented code")
        true
        (List.mem_assoc m.Mutate.expect Lint.codes))
    Mutate.corpus

(* ------------------------------------------------------------------ *)
(* Shipped workloads lint clean — the CLI's success path (exit 0).     *)

let shipped_clean () =
  List.iter
    (fun (p : Lintrun.pair) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s on %s lints clean" (Scheme.name p.scheme)
           p.workload)
        [] (codes_of p.diags))
    (Lintrun.sweep ())

(* ------------------------------------------------------------------ *)
(* Lockset checks on hand-built programs.                              *)

let two_func ~build_worker =
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  let arr = Wcommon.alloc_node b 8 [] in
  Wcommon.set_root b 0 (Ir.Reg arr);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, _ = Builder.create ~name:"worker" ~nparams:1 in
  let arr = Wcommon.get_root b 0 in
  build_worker b arr;
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

let lint_under scheme prog =
  codes_of (Lint.lint_program scheme (Instrument.instrument scheme prog))

let lock_at b arr k = Builder.bin b Ir.Add (Ir.Reg arr) (Ir.Imm (Int64.of_int k))

let l501_unprotected_write () =
  let prog =
    two_func ~build_worker:(fun b arr ->
        let l = lock_at b arr 4 in
        Builder.lock b (Ir.Reg l);
        Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 1L);
        Builder.unlock b (Ir.Reg l);
        (* same word written again with no lock held *)
        Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 2L))
  in
  Alcotest.(check bool)
    "unprotected write is L501" true
    (List.mem "L501" (lint_under Scheme.Justdo prog))

let l502_empty_lockset () =
  let prog =
    two_func ~build_worker:(fun b arr ->
        let a = lock_at b arr 4 and bq = lock_at b arr 5 in
        let parity = Builder.bin b Ir.And (Ir.Reg arr) (Ir.Imm 1L) in
        Builder.if_ b (Ir.Reg parity)
          ~then_:(fun () ->
            Builder.lock b (Ir.Reg a);
            Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 1L);
            Builder.unlock b (Ir.Reg a))
          ~else_:(fun () ->
            Builder.lock b (Ir.Reg bq);
            Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 2L);
            Builder.unlock b (Ir.Reg bq)))
  in
  Alcotest.(check bool)
    "disjoint locksets are L502" true
    (List.mem "L502" (lint_under Scheme.Justdo prog))

let l503_lock_order_cycle () =
  let prog =
    two_func ~build_worker:(fun b arr ->
        let a = lock_at b arr 4 and bq = lock_at b arr 5 in
        Builder.lock b (Ir.Reg a);
        Builder.lock b (Ir.Reg bq);
        Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 1L);
        Builder.unlock b (Ir.Reg bq);
        Builder.unlock b (Ir.Reg a);
        Builder.lock b (Ir.Reg bq);
        Builder.lock b (Ir.Reg a);
        Builder.store b Ir.Persistent (Ir.Reg arr) 1 (Ir.Imm 2L);
        Builder.unlock b (Ir.Reg a);
        Builder.unlock b (Ir.Reg bq))
  in
  Alcotest.(check bool)
    "opposite nesting orders are L503" true
    (List.mem "L503" (lint_under Scheme.Justdo prog))

let consistent_order_clean () =
  (* same nesting order twice: no cycle, and the shared words hold a
     common lock, so the whole lockset pass stays silent *)
  let prog =
    two_func ~build_worker:(fun b arr ->
        let a = lock_at b arr 4 and bq = lock_at b arr 5 in
        Builder.lock b (Ir.Reg a);
        Builder.lock b (Ir.Reg bq);
        Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 1L);
        Builder.unlock b (Ir.Reg bq);
        Builder.unlock b (Ir.Reg a);
        Builder.lock b (Ir.Reg a);
        Builder.lock b (Ir.Reg bq);
        Builder.store b Ir.Persistent (Ir.Reg arr) 0 (Ir.Imm 2L);
        Builder.unlock b (Ir.Reg bq);
        Builder.unlock b (Ir.Reg a))
  in
  Alcotest.(check (list string))
    "consistent discipline lints clean" []
    (lint_under Scheme.Justdo prog)

(* ------------------------------------------------------------------ *)
(* Random-CFG corpus: instrumentation output always lints clean, and
   a linter-clean program also passes the dynamic crash matrix — the
   static and dynamic obligations agree.                               *)

let instrumented_schemes =
  Scheme.[ Ido; Justdo; Atlas; Mnemosyne; Nvthreads ]

let prop_random_cfgs_lint_clean =
  QCheck.Test.make ~name:"instrumented random CFGs lint clean" ~count:40
    Test_idempotence.trees_arb
    (fun trees ->
      let prog = Test_idempotence.program_of_trees trees in
      List.for_all
        (fun scheme ->
          lint_under scheme prog = []
          || QCheck.Test.fail_reportf "%s: %s" (Scheme.name scheme)
               (String.concat "," (lint_under scheme prog)))
        instrumented_schemes)

let prop_lint_clean_implies_crash_safe =
  QCheck.Test.make
    ~name:"linter-clean programs pass the crash matrix" ~count:20
    Test_idempotence.trees_arb
    (fun trees ->
      let prog = Test_idempotence.program_of_trees trees in
      (* static obligation first... *)
      lint_under Scheme.Ido prog = []
      &&
      (* ...then the dynamic one on the same program *)
      let seed = 1 + (Hashtbl.hash trees mod 1000) in
      let reference, end_clock = Test_idempotence.run_reference prog seed in
      List.for_all
        (fun frac ->
          let crash_at = max 1 (end_clock * frac / 10) in
          let got, resumed =
            Test_idempotence.run_with_crash Scheme.Ido prog seed crash_at
          in
          if resumed > 0 then got = reference
          else got = reference || got = Test_idempotence.initial_cells)
        [ 2; 5; 8 ])

(* ------------------------------------------------------------------ *)
(* The instrumentation post-pass: [~lint:true] is a no-op on correct
   output and refuses to emit a program the linter rejects.            *)

let instrument_lint_postpass () =
  ignore
    (Instrument.instrument ~lint:true Scheme.Justdo
       (Ido_workloads.Workload.named "queue"));
  let m =
    match Mutate.find "unlocked-store" with
    | Some m -> m
    | None -> Alcotest.fail "unlocked-store mutant missing"
  in
  let raised =
    try
      ignore
        (Instrument.instrument ~lint:true m.Mutate.scheme
           (m.Mutate.transform
              (Ido_workloads.Workload.named m.Mutate.workload)));
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "post-pass rejects a seeded bug" true raised

let explain_total () =
  List.iter
    (fun (c, s) ->
      Alcotest.(check int) ("one row for " ^ c) 1
        (List.length (List.filter (fun (c', _) -> c' = c) Lint.codes));
      Alcotest.(check bool) ("explained " ^ c) true (s <> ""))
    Lint.codes

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "mutation corpus is caught" `Quick corpus_caught;
        Alcotest.test_case "mutant names unique" `Quick corpus_names_unique;
        Alcotest.test_case "corpus codes documented" `Quick
          corpus_codes_documented;
        Alcotest.test_case "shipped workloads x schemes lint clean" `Slow
          shipped_clean;
        Alcotest.test_case "L501 unprotected write" `Quick
          l501_unprotected_write;
        Alcotest.test_case "L502 empty lockset" `Quick l502_empty_lockset;
        Alcotest.test_case "L503 lock-order cycle" `Quick
          l503_lock_order_cycle;
        Alcotest.test_case "consistent locking lints clean" `Quick
          consistent_order_clean;
        qtest prop_random_cfgs_lint_clean;
        qtest prop_lint_clean_implies_crash_safe;
        Alcotest.test_case "instrument ~lint:true post-pass" `Quick
          instrument_lint_postpass;
        Alcotest.test_case "code table total" `Quick explain_total;
      ] );
  ]
