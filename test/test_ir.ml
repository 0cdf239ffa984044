open Ido_ir
open Ido_analysis

(* Small helpers to assemble test functions. *)

let finish_ret b =
  Builder.ret b None;
  Builder.finish b

let simple_counter_fn () =
  let b, ps = Builder.create ~name:"f" ~nparams:1 in
  let n = List.nth ps 0 in
  let i = Builder.mov b (Ir.Imm 0L) in
  Builder.while_ b
    ~cond:(fun () -> Ir.Reg (Builder.bin b Ir.Lt (Ir.Reg i) (Ir.Reg n)))
    ~body:(fun () -> Builder.assign_bin b i Ir.Add (Ir.Reg i) (Ir.Imm 1L));
  Builder.ret b (Some (Ir.Reg i));
  Builder.finish b

(* ------------------------------------------------------------------ *)
(* Builder structure *)

let test_builder_blocks () =
  let f = simple_counter_fn () in
  Alcotest.(check int) "four blocks (entry + while trio)" 4
    (Array.length f.Ir.blocks);
  Alcotest.(check string) "entry label" "entry" f.Ir.blocks.(0).Ir.label;
  Alcotest.(check bool) "nregs counted" true (f.Ir.nregs >= 2)

let test_builder_unterminated_rejected () =
  let b, _ = Builder.create ~name:"g" ~nparams:0 in
  let blk = Builder.block b "dangling" in
  Builder.br b blk;
  Builder.switch_to b blk;
  (* blk never terminated *)
  Alcotest.check_raises "unterminated"
    (Failure "Builder.finish: block dangling of g not terminated") (fun () ->
      ignore (Builder.finish b))

let test_builder_double_terminate_rejected () =
  let b, _ = Builder.create ~name:"g" ~nparams:0 in
  Builder.ret b None;
  Alcotest.check_raises "double" (Invalid_argument "Builder: block already terminated")
    (fun () -> Builder.ret b None)

let test_builder_emit_after_terminator_rejected () =
  let b, _ = Builder.create ~name:"g" ~nparams:0 in
  Builder.ret b None;
  Alcotest.check_raises "emit after ret"
    (Invalid_argument "Builder: emitting into a terminated block") (fun () ->
      ignore (Builder.mov b (Ir.Imm 0L)))

let test_if_join () =
  let b, ps = Builder.create ~name:"g" ~nparams:1 in
  let x = List.nth ps 0 in
  let r = Builder.mov b (Ir.Imm 0L) in
  Builder.if_ b (Ir.Reg x)
    ~then_:(fun () -> Builder.assign b r (Ir.Imm 1L))
    ~else_:(fun () -> Builder.assign b r (Ir.Imm 2L));
  Builder.ret b (Some (Ir.Reg r));
  let f = Builder.finish b in
  Alcotest.(check int) "diamond has 4 blocks" 4 (Array.length f.Ir.blocks);
  (* Both branches jump to the join. *)
  let targets =
    Array.to_list f.Ir.blocks
    |> List.concat_map (fun (blk : Ir.block) -> Ir.successors blk.Ir.term)
  in
  Alcotest.(check bool) "join referenced twice" true
    (List.length (List.filter (fun t -> t = 3) targets) = 2)

(* ------------------------------------------------------------------ *)
(* Use/def *)

let test_use_def () =
  let i = Ir.Bin (3, Ir.Add, Ir.Reg 1, Ir.Reg 2) in
  Alcotest.(check (list int)) "uses" [ 1; 2 ] (Ir.instr_uses i);
  Alcotest.(check (list int)) "defs" [ 3 ] (Ir.instr_defs i);
  let s = Ir.Store { space = Ir.Persistent; base = Ir.Reg 4; off = 0; src = Ir.Reg 5 } in
  Alcotest.(check (list int)) "store uses" [ 4; 5 ] (Ir.instr_uses s);
  Alcotest.(check (list int)) "store defs" [] (Ir.instr_defs s);
  let c = Ir.Call { dst = Some 7; func = "f"; args = [ Ir.Reg 1; Ir.Imm 0L ] } in
  Alcotest.(check (list int)) "call defs" [ 7 ] (Ir.instr_defs c);
  Alcotest.(check (list int)) "term uses" [ 9 ] (Ir.term_uses (Ir.Cbr (Ir.Reg 9, 0, 1)))

let test_positions () =
  Alcotest.(check bool) "pos ordering" true
    (Ir.compare_pos { Ir.blk = 0; idx = 5 } { Ir.blk = 1; idx = 0 } < 0);
  Alcotest.(check bool) "same block by idx" true
    (Ir.compare_pos { Ir.blk = 1; idx = 0 } { Ir.blk = 1; idx = 3 } < 0)

let test_printer () =
  let f = simple_counter_fn () in
  let s = Format.asprintf "%a" Ir.pp_func f in
  Alcotest.(check bool) "prints header" true
    (String.length s > 6 && String.sub s 0 6 = "func f");
  let has frag =
    let n = String.length frag in
    let rec go i = i + n <= String.length s && (String.sub s i n = frag || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prints loop blocks" true (has "while_head");
  Alcotest.(check bool) "prints terminators" true (has "cbr")

(* ------------------------------------------------------------------ *)
(* Validator *)

let prog_of f = { Ir.funcs = [ (f.Ir.name, f) ] }

let codes ?allow_hooks p =
  List.map (fun d -> d.Diag.code) (Validate.check_program_diags ?allow_hooks p)

(* [f] must draw a [code] diagnostic whose message mentions [fragment]. *)
let expect_error f code fragment =
  let ds = Validate.check_program_diags (prog_of f) in
  let contains m =
    let rec go i =
      i + String.length fragment <= String.length m
      && (String.sub m i (String.length fragment) = fragment || go (i + 1))
    in
    go 0
  in
  if
    not
      (List.exists (fun d -> d.Diag.code = code && contains d.Diag.message) ds)
  then
    Alcotest.failf "diagnostics %s lack [%s] %S"
      (String.concat "; " (List.map Diag.render ds))
      code fragment

let test_validate_ok () =
  let f = simple_counter_fn () in
  Alcotest.(check (list string)) "no diagnostics" [] (codes (prog_of f));
  Validate.check_program_exn (prog_of f)

let test_validate_unlock_without_lock () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V113" "unlock with no lock held"

let test_validate_ret_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V113" "return with lock held"

let test_validate_rand_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  ignore (Builder.intr b Ir.Rand [ Ir.Imm 4L ]);
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V107" "rand inside FASE"

let test_validate_observe_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.durable_begin b;
  Builder.intr_void b Ir.Observe [ Ir.Imm 1L ];
  Builder.durable_end b;
  expect_error (finish_ret b) "V108" "observe inside FASE"

let test_validate_nv_free_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  Builder.intr_void b Ir.Nv_free [ Ir.Imm 64L ];
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V109" "double-free"

let test_validate_transient_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  ignore (Builder.load b Ir.Transient (Ir.Imm 0L) 0);
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V110" "transient load inside FASE"

let test_validate_call_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  Builder.call_void b "f" [];
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V106" "call inside FASE"

let test_validate_nested_durable () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.durable_begin b;
  Builder.durable_begin b;
  Builder.durable_end b;
  expect_error (finish_ret b) "V113" "nested durable"

let test_validate_durable_in_lock () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  Builder.durable_begin b;
  Builder.durable_end b;
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V113" "durable region inside FASE"

let test_validate_inconsistent_join () =
  (* Lock held on one arm of a diamond only. *)
  let b, ps = Builder.create ~name:"f" ~nparams:1 in
  let x = List.nth ps 0 in
  Builder.if_ b (Ir.Reg x)
    ~then_:(fun () -> Builder.lock b (Ir.Imm 1L))
    ~else_:(fun () -> ());
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V113" "inconsistent lock depth"

let test_validate_alloca_in_fase () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 1L);
  ignore (Builder.alloca b 4);
  Builder.unlock b (Ir.Imm 1L);
  expect_error (finish_ret b) "V112" "alloca inside FASE"

let test_validate_hooks_rejected () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.ret b None;
  let f = Builder.finish b in
  f.Ir.blocks.(0).Ir.instrs <- [| Ir.Hook Ir.Hfase_enter |];
  expect_error f "V103" "unexpected hook";
  (* But accepted when instrumented output is being validated. *)
  Alcotest.(check (list string))
    "hooks pass" [] (codes ~allow_hooks:true (prog_of f))

let test_validate_call_graph () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.call_void b "missing" [];
  Builder.ret b None;
  let f = Builder.finish b in
  expect_error f "V131" "unknown function";
  let b, _ = Builder.create ~name:"g" ~nparams:2 in
  Builder.ret b None;
  let g = Builder.finish b in
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.call_void b "g" [ Ir.Imm 1L ];
  Builder.ret b None;
  let f2 = Builder.finish b in
  Alcotest.(check (list string))
    "arity mismatch" [ "V132" ]
    (codes { Ir.funcs = [ ("f", f2); ("g", g) ] });
  (* Duplicate function names. *)
  Alcotest.(check (list string))
    "duplicate" [ "V130" ]
    (codes { Ir.funcs = [ ("g", g); ("g", g) ] })

let test_validate_workloads () =
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        name [] (codes (Ido_workloads.Workload.named name)))
    Ido_workloads.Workload.names

let suites =
  [
    ( "ir.builder",
      [
        Alcotest.test_case "blocks" `Quick test_builder_blocks;
        Alcotest.test_case "unterminated rejected" `Quick
          test_builder_unterminated_rejected;
        Alcotest.test_case "double terminate" `Quick
          test_builder_double_terminate_rejected;
        Alcotest.test_case "emit after terminator" `Quick
          test_builder_emit_after_terminator_rejected;
        Alcotest.test_case "if join" `Quick test_if_join;
      ] );
    ( "ir.core",
      [
        Alcotest.test_case "use/def" `Quick test_use_def;
        Alcotest.test_case "positions" `Quick test_positions;
        Alcotest.test_case "printer" `Quick test_printer;
      ] );
    ( "ir.validate",
      [
        Alcotest.test_case "valid program" `Quick test_validate_ok;
        Alcotest.test_case "unlock w/o lock" `Quick test_validate_unlock_without_lock;
        Alcotest.test_case "ret in FASE" `Quick test_validate_ret_in_fase;
        Alcotest.test_case "rand in FASE" `Quick test_validate_rand_in_fase;
        Alcotest.test_case "observe in FASE" `Quick test_validate_observe_in_fase;
        Alcotest.test_case "nv_free in FASE" `Quick test_validate_nv_free_in_fase;
        Alcotest.test_case "transient in FASE" `Quick test_validate_transient_in_fase;
        Alcotest.test_case "call in FASE" `Quick test_validate_call_in_fase;
        Alcotest.test_case "nested durable" `Quick test_validate_nested_durable;
        Alcotest.test_case "durable in lock FASE" `Quick test_validate_durable_in_lock;
        Alcotest.test_case "inconsistent join" `Quick test_validate_inconsistent_join;
        Alcotest.test_case "alloca in FASE" `Quick test_validate_alloca_in_fase;
        Alcotest.test_case "hooks gated" `Quick test_validate_hooks_rejected;
        Alcotest.test_case "call graph" `Quick test_validate_call_graph;
        Alcotest.test_case "all workloads validate" `Quick test_validate_workloads;
      ] );
  ]
