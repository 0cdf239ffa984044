(* The paper's core invariant (Sec. II-C): with boundaries placed by
   the region-formation analysis, re-executing the current region from
   its entry — which is exactly what iDO recovery does — produces the
   same final persistent state as a crash-free run.

   We generate random single-FASE programs over a small persistent
   array (loads, stores, arithmetic, address-computed stores), run each
   under iDO to completion to obtain the reference heap, then re-run
   with a crash injected at every plausible simulated instant followed
   by recovery, and require the recovered heap to equal the reference.

   This exercises the whole pipeline end to end: alias analysis,
   antidependence detection, cut placement, boundary persisting,
   epoch-stamped lock records and resumption. *)

open Ido_ir
open Ido_runtime
module Vm = Ido_vm.Vm
module Wcommon = Ido_workloads.Wcommon

let qtest = QCheck_alcotest.to_alcotest

let cells = 16

(* A random FASE body instruction. *)
type op =
  | Load of int  (* dst pool slot <- cells[k] *)
  | Store of int * int  (* cells[k] <- pool slot value *)
  | Addi of int  (* pool value += k *)
  | Mix  (* combine two pool values *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Load (k mod cells)) small_nat);
        (4, map2 (fun k v -> Store (k mod cells, v)) small_nat small_nat);
        (2, map (fun k -> Addi (k mod 7)) small_nat);
        (1, return Mix);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Load k -> Printf.sprintf "L%d" k
             | Store (k, v) -> Printf.sprintf "S%d<-%d" k v
             | Addi k -> Printf.sprintf "A%d" k
             | Mix -> "M")
           ops))
    QCheck.Gen.(list_size (int_range 1 24) op_gen)

(* Build: init allocates the cell array (+ lock holder); worker runs
   one lock-delineated FASE executing [ops] against it. *)
let program_of ops =
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  let arr = Wcommon.alloc_node b (cells + 1) [] in
  (* Make cells start nonzero so stores are distinguishable. *)
  for i = 0 to cells - 1 do
    Builder.store b Ir.Persistent (Ir.Reg arr) i (Ir.Imm (Int64.of_int (100 + i)))
  done;
  Wcommon.set_root b 0 (Ir.Reg arr);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, _ = Builder.create ~name:"worker" ~nparams:1 in
  let arr = Wcommon.get_root b 0 in
  let lockid = Builder.bin b Ir.Add (Ir.Reg arr) (Ir.Imm (Int64.of_int cells)) in
  Builder.lock b (Ir.Reg lockid);
  let v1 = Builder.mov b (Ir.Imm 1L) in
  let v2 = Builder.mov b (Ir.Imm 2L) in
  List.iter
    (fun op ->
      match op with
      | Load k ->
          let x = Builder.load b Ir.Persistent (Ir.Reg arr) k in
          Builder.assign b v1 (Ir.Reg x)
      | Store (k, v) ->
          let x = Builder.bin b Ir.Add (Ir.Reg v1) (Ir.Imm (Int64.of_int v)) in
          Builder.store b Ir.Persistent (Ir.Reg arr) k (Ir.Reg x)
      | Addi k -> Builder.assign_bin b v2 Ir.Add (Ir.Reg v2) (Ir.Imm (Int64.of_int k))
      | Mix -> Builder.assign_bin b v1 Ir.Xor (Ir.Reg v1) (Ir.Reg v2))
    ops;
  Builder.unlock b (Ir.Reg lockid);
  Builder.ret b None;
  let worker = Builder.finish b in
  { Ir.funcs = [ ("init", init); ("worker", worker) ] }

let heap_cells m =
  let pm = Vm.pmem m in
  let arr = Int64.to_int (Ido_region.Region.get_root (Vm.region m) 0) in
  Array.init cells (fun i -> Ido_nvm.Pmem.load pm (arr + i))

let run_reference prog seed =
  let m = Vm.create { (Vm.config Scheme.Ido) with seed } prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  ignore (Vm.run m);
  Vm.flush_all m;
  let _ = Vm.spawn m ~fname:"worker" ~args:[ 0L ] in
  (match Vm.run m with `Idle -> () | _ -> failwith "reference run stuck");
  (heap_cells m, Vm.clock m)

let run_with_crash scheme prog seed crash_at =
  let m = Vm.create { (Vm.config scheme) with seed } prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  ignore (Vm.run m);
  Vm.flush_all m;
  let t0 = Vm.clock m in
  let _ = Vm.spawn m ~fname:"worker" ~args:[ 0L ] in
  (match Vm.run ~until:(t0 + crash_at) m with
  | `Until | `Idle -> ()
  | _ -> failwith "crash run stuck");
  Vm.crash m;
  let stats = Vm.recover m in
  (heap_cells m, stats.Ido_vm.Recover.fases_resumed)

let initial_cells = Array.init cells (fun i -> Int64.of_int (100 + i))

let prop_recovery_reaches_reference =
  QCheck.Test.make ~name:"resumed FASEs complete to the crash-free heap" ~count:60
    ops_arb
    (fun ops ->
      let prog = program_of ops in
      let seed = 1 + (Hashtbl.hash ops mod 1000) in
      let reference, end_clock = run_reference prog seed in
      (* Crash at several instants spanning the whole FASE.  When the
         crash caught an open FASE (a resumption happened), recovery
         must complete it to the reference heap; otherwise the heap is
         the reference (FASE already finished) or untouched (FASE not
         yet started). *)
      List.for_all
        (fun frac ->
          let crash_at = max 1 (end_clock * frac / 10) in
          let got, resumed = run_with_crash Scheme.Ido prog seed crash_at in
          if resumed > 0 then got = reference
          else got = reference || got = initial_cells)
        [ 1; 3; 5; 7; 9 ])

(* The same invariant must hold for every other recoverable scheme:
   after crash + recovery the heap is either the reference (resumption
   schemes complete the FASE) or the initial state (rollback schemes
   discard it) — never a torn mixture. *)

let prop_all_schemes_atomic =
  QCheck.Test.make ~name:"every scheme yields all-or-nothing heaps" ~count:25
    ops_arb
    (fun ops ->
      let prog = program_of ops in
      let seed = 1 + (Hashtbl.hash ops mod 1000) in
      List.for_all
        (fun scheme ->
          let reference, end_clock =
            let m = Vm.create { (Vm.config scheme) with seed } prog in
            let _ = Vm.spawn m ~fname:"init" ~args:[] in
            ignore (Vm.run m);
            Vm.flush_all m;
            let _ = Vm.spawn m ~fname:"worker" ~args:[ 0L ] in
            (match Vm.run m with `Idle -> () | _ -> failwith "stuck");
            (heap_cells m, Vm.clock m)
          in
          List.for_all
            (fun frac ->
              let m = Vm.create { (Vm.config scheme) with seed } prog in
              let _ = Vm.spawn m ~fname:"init" ~args:[] in
              ignore (Vm.run m);
              Vm.flush_all m;
              let t0 = Vm.clock m in
              let _ = Vm.spawn m ~fname:"worker" ~args:[ 0L ] in
              (match Vm.run ~until:(t0 + max 1 (end_clock * frac / 10)) m with
              | `Until | `Idle -> ()
              | _ -> failwith "stuck");
              Vm.crash m;
              let _ = Vm.recover m in
              let got = heap_cells m in
              got = reference || got = initial_cells)
            [ 2; 5; 8 ])
        Scheme.[ Ido; Justdo; Atlas; Mnemosyne; Nvthreads ])

(* ------------------------------------------------------------------ *)
(* Structured control flow inside the FASE: random diamonds and
   bounded loops exercise cross-block antidependences, loop-header
   handling, liveness across joins, and resumption into arbitrary
   block positions. *)

type tree = Seq of op list | If of op list * op list | Loop of int * op list

let tree_gen =
  QCheck.Gen.(
    let ops = list_size (int_range 1 6) op_gen in
    frequency
      [
        (3, map (fun l -> Seq l) ops);
        (2, map2 (fun a b -> If (a, b)) ops ops);
        (2, map2 (fun n l -> Loop (1 + (n mod 4), l)) small_nat ops);
      ])

let trees_arb =
  let print_ops ops =
    String.concat ";"
      (List.map
         (function
           | Load k -> Printf.sprintf "L%d" k
           | Store (k, v) -> Printf.sprintf "S%d<-%d" k v
           | Addi k -> Printf.sprintf "A%d" k
           | Mix -> "M")
         ops)
  in
  QCheck.make
    ~print:(fun ts ->
      String.concat " | "
        (List.map
           (function
             | Seq l -> "seq(" ^ print_ops l ^ ")"
             | If (a, b) -> "if(" ^ print_ops a ^ " / " ^ print_ops b ^ ")"
             | Loop (n, l) -> Printf.sprintf "loop%d(%s)" n (print_ops l))
           ts))
    QCheck.Gen.(list_size (int_range 1 5) tree_gen)

let program_of_trees trees =
  let b0, _ = Builder.create ~name:"init" ~nparams:0 in
  let arr = Wcommon.alloc_node b0 (cells + 1) [] in
  for i = 0 to cells - 1 do
    Builder.store b0 Ir.Persistent (Ir.Reg arr) i (Ir.Imm (Int64.of_int (100 + i)))
  done;
  Wcommon.set_root b0 0 (Ir.Reg arr);
  Builder.ret b0 None;
  let init = Builder.finish b0 in
  let b, _ = Builder.create ~name:"worker" ~nparams:1 in
  let arr = Wcommon.get_root b 0 in
  let lockid = Builder.bin b Ir.Add (Ir.Reg arr) (Ir.Imm (Int64.of_int cells)) in
  Builder.lock b (Ir.Reg lockid);
  let v1 = Builder.mov b (Ir.Imm 1L) in
  let v2 = Builder.mov b (Ir.Imm 2L) in
  let emit_op op =
    match op with
    | Load k ->
        let x = Builder.load b Ir.Persistent (Ir.Reg arr) k in
        Builder.assign b v1 (Ir.Reg x)
    | Store (k, v) ->
        let x = Builder.bin b Ir.Add (Ir.Reg v1) (Ir.Imm (Int64.of_int v)) in
        Builder.store b Ir.Persistent (Ir.Reg arr) k (Ir.Reg x)
    | Addi k -> Builder.assign_bin b v2 Ir.Add (Ir.Reg v2) (Ir.Imm (Int64.of_int k))
    | Mix -> Builder.assign_bin b v1 Ir.Xor (Ir.Reg v1) (Ir.Reg v2)
  in
  List.iter
    (fun t ->
      match t with
      | Seq ops -> List.iter emit_op ops
      | If (a, c) ->
          let parity = Builder.bin b Ir.And (Ir.Reg v2) (Ir.Imm 1L) in
          Builder.if_ b (Ir.Reg parity)
            ~then_:(fun () -> List.iter emit_op a)
            ~else_:(fun () -> List.iter emit_op c)
      | Loop (n, ops) ->
          let i = Builder.mov b (Ir.Imm 0L) in
          Builder.while_ b
            ~cond:(fun () ->
              Ir.Reg (Builder.bin b Ir.Lt (Ir.Reg i) (Ir.Imm (Int64.of_int n))))
            ~body:(fun () ->
              List.iter emit_op ops;
              Builder.assign_bin b i Ir.Add (Ir.Reg i) (Ir.Imm 1L)))
    trees;
  Builder.unlock b (Ir.Reg lockid);
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

let prop_structured_recovery =
  QCheck.Test.make
    ~name:"resumption correct across branches and loops" ~count:50 trees_arb
    (fun trees ->
      let prog = program_of_trees trees in
      let seed = 1 + (Hashtbl.hash trees mod 1000) in
      let reference, end_clock = run_reference prog seed in
      List.for_all
        (fun frac ->
          let crash_at = max 1 (end_clock * frac / 12) in
          let got, resumed = run_with_crash Scheme.Ido prog seed crash_at in
          if resumed > 0 then got = reference
          else got = reference || got = initial_cells)
        [ 1; 2; 4; 6; 8; 10; 11 ])

(* ------------------------------------------------------------------ *)
(* Static counterpart of the dynamic properties above: region
   formation must never leave a memory antidependence (WAR) inside a
   region, or re-execution from the region entry could observe its own
   writes (Sec. II-C).  Checked over a seeded, deterministic corpus of
   random control-flow shapes via the analysis's own exhaustive
   path-bounded verifier. *)

module Rng = Ido_util.Rng

let rng_op rng =
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> Load (Rng.int rng cells)
  | 3 | 4 | 5 | 6 -> Store (Rng.int rng cells, Rng.int rng 50)
  | 7 | 8 -> Addi (Rng.int rng 7)
  | _ -> Mix

let rng_ops rng n = List.init (1 + Rng.int rng n) (fun _ -> rng_op rng)

let rng_tree rng =
  match Rng.int rng 7 with
  | 0 | 1 | 2 -> Seq (rng_ops rng 6)
  | 3 | 4 -> If (rng_ops rng 6, rng_ops rng 6)
  | _ -> Loop (1 + Rng.int rng 4, rng_ops rng 6)

let regions_war_free () =
  let rng = Rng.create 0xC0FFEE in
  for i = 1 to 150 do
    let trees = List.init (1 + Rng.int rng 5) (fun _ -> rng_tree rng) in
    let prog = program_of_trees trees in
    let f = List.assoc "worker" prog.Ir.funcs in
    let cfg = Ido_analysis.Cfg.build f in
    let fase = Ido_analysis.Fase.compute_exn cfg in
    let lv = Ido_analysis.Liveness.compute cfg in
    let alias = Ido_analysis.Alias.compute cfg in
    let plan = Ido_analysis.Regions.compute cfg fase lv alias in
    Alcotest.(check bool)
      (Printf.sprintf "corpus function %d has no intra-region WAR" i)
      true
      (Ido_analysis.Regions.verify_no_war_within_regions cfg fase alias plan)
  done

let suites =
  [
    ( "idempotence",
      [
        qtest prop_recovery_reaches_reference;
        qtest prop_all_schemes_atomic;
        qtest prop_structured_recovery;
        Alcotest.test_case "random CFG corpus: regions are WAR-free" `Quick
          regions_war_free;
      ] );
  ]
