open Ido_ir
open Ido_analysis

(* A diamond with a loop in one arm:
     0 -> 1 -> 2 -> 1 (back edge), 1 -> 3, 0 -> 3 *)
let loopy_fn () =
  let b, ps = Builder.create ~name:"loopy" ~nparams:2 in
  let n = List.nth ps 0 in
  let i = Builder.mov b (Ir.Imm 0L) in
  Builder.while_ b
    ~cond:(fun () -> Ir.Reg (Builder.bin b Ir.Lt (Ir.Reg i) (Ir.Reg n)))
    ~body:(fun () -> Builder.assign_bin b i Ir.Add (Ir.Reg i) (Ir.Imm 1L));
  Builder.ret b (Some (Ir.Reg i));
  Builder.finish b

(* ------------------------------------------------------------------ *)
(* CFG *)

let test_cfg_structure () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  (* Blocks: 0 entry, 1 while_head, 2 while_body, 3 while_exit. *)
  Alcotest.(check (list int)) "entry succs" [ 1 ] (Cfg.succs cfg 0);
  Alcotest.(check bool) "head branches to body and exit" true
    (List.sort compare (Cfg.succs cfg 1) = [ 2; 3 ]);
  Alcotest.(check (list int)) "body back to head" [ 1 ] (Cfg.succs cfg 2);
  Alcotest.(check bool) "head preds = entry + body" true
    (List.sort compare (Cfg.preds cfg 1) = [ 0; 2 ]);
  Alcotest.(check bool) "all reachable" true
    (List.for_all (Cfg.reachable cfg) [ 0; 1; 2; 3 ])

let test_cfg_rpo () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  match Cfg.reverse_postorder cfg with
  | 0 :: rest -> Alcotest.(check int) "all blocks" 3 (List.length rest)
  | _ -> Alcotest.fail "rpo must start at entry"

let test_dominators () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  Alcotest.(check (option int)) "idom head" (Some 0) (Cfg.idom cfg 1);
  Alcotest.(check (option int)) "idom body" (Some 1) (Cfg.idom cfg 2);
  Alcotest.(check (option int)) "idom exit" (Some 1) (Cfg.idom cfg 3);
  Alcotest.(check bool) "head dominates body" true (Cfg.dominates cfg 1 2);
  Alcotest.(check bool) "body does not dominate exit" false (Cfg.dominates cfg 2 3);
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun x -> Cfg.dominates cfg 0 x) [ 0; 1; 2; 3 ])

let test_back_edges () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  Alcotest.(check (list (pair int int))) "one back edge" [ (2, 1) ] (Cfg.back_edges cfg);
  Alcotest.(check (list int)) "loop headers" [ 1 ] (Cfg.loop_headers cfg)

let test_path_exists () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  let p blk idx = { Ir.blk; idx } in
  Alcotest.(check bool) "forward same block" true (Cfg.path_exists cfg (p 0 0) (p 0 1));
  Alcotest.(check bool) "not backward in entry" false
    (Cfg.path_exists cfg (p 0 1) (p 0 0));
  Alcotest.(check bool) "cycle body->body" true (Cfg.path_exists cfg (p 2 0) (p 2 0));
  Alcotest.(check bool) "exit cannot reach entry" false
    (Cfg.path_exists cfg (p 3 0) (p 0 0))

(* ------------------------------------------------------------------ *)
(* Liveness *)

let test_liveness () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  let lv = Liveness.compute cfg in
  let n = List.nth f.Ir.params 0 in
  (* The loop bound n is live throughout the loop. *)
  Alcotest.(check bool) "n live into head" true (Regset.mem n (Liveness.live_in lv 1));
  Alcotest.(check bool) "n live into body" true (Regset.mem n (Liveness.live_in lv 2));
  Alcotest.(check bool) "n dead at exit" false (Regset.mem n (Liveness.live_in lv 3));
  (* The second (unused) parameter is dead everywhere. *)
  let unused = List.nth f.Ir.params 1 in
  Alcotest.(check bool) "unused param dead" false
    (Regset.mem unused (Liveness.live_in lv 0))

let test_liveness_at_positions () =
  (* r = 1; s = r + 1; ret s — r dies after its use. *)
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  let r = Builder.mov b (Ir.Imm 1L) in
  let s = Builder.bin b Ir.Add (Ir.Reg r) (Ir.Imm 1L) in
  Builder.ret b (Some (Ir.Reg s));
  let f = Builder.finish b in
  let lv = Liveness.compute (Cfg.build f) in
  Alcotest.(check bool) "r live before its use" true
    (Regset.mem r (Liveness.live_at lv { Ir.blk = 0; idx = 1 }));
  Alcotest.(check bool) "r dead before the ret" false
    (Regset.mem r (Liveness.live_at lv { Ir.blk = 0; idx = 2 }));
  Alcotest.(check bool) "s live before ret" true
    (Regset.mem s (Liveness.live_at lv { Ir.blk = 0; idx = 2 }))

(* ------------------------------------------------------------------ *)
(* Alias analysis *)

let test_alias () =
  let b, ps = Builder.create ~name:"f" ~nparams:2 in
  let p0 = List.nth ps 0 and p1 = List.nth ps 1 in
  let a = Builder.intr b Ir.Nv_alloc [ Ir.Imm 8L ] in
  let c = Builder.intr b Ir.Nv_alloc [ Ir.Imm 8L ] in
  ignore (Builder.load b Ir.Persistent (Ir.Reg a) 0);    (* idx 2 *)
  Builder.store b Ir.Persistent (Ir.Reg a) 1 (Ir.Imm 1L);(* idx 3 *)
  Builder.store b Ir.Persistent (Ir.Reg a) 0 (Ir.Imm 2L);(* idx 4 *)
  Builder.store b Ir.Persistent (Ir.Reg c) 0 (Ir.Imm 3L);(* idx 5 *)
  ignore (Builder.load b Ir.Persistent (Ir.Reg p0) 0);   (* idx 6 *)
  Builder.store b Ir.Persistent (Ir.Reg p1) 0 (Ir.Imm 4L);(* idx 7 *)
  ignore (Builder.load b Ir.Transient (Ir.Reg a) 0);     (* idx 8 *)
  let rt = Builder.intr b Ir.Root_get [ Ir.Imm 0L ] in
  Builder.store b Ir.Persistent (Ir.Reg rt) 0 (Ir.Imm 5L);(* idx 10 *)
  let nd = Builder.load b Ir.Persistent (Ir.Reg rt) 1 in  (* idx 11 *)
  Builder.store b Ir.Persistent (Ir.Reg nd) 0 (Ir.Imm 6L);(* idx 12 *)
  ignore (Builder.load b Ir.Persistent (Ir.Reg nd) 1);   (* idx 13 *)
  Builder.ret b None;
  let f = Builder.finish b in
  let al = Alias.compute (Cfg.build f) in
  let p i = { Ir.blk = 0; idx = i } in
  Alcotest.(check bool) "same base different offsets" false (Alias.may_alias al (p 2) (p 3));
  Alcotest.(check bool) "same base same offset" true (Alias.may_alias al (p 2) (p 4));
  Alcotest.(check bool) "distinct allocations" false (Alias.may_alias al (p 2) (p 5));
  Alcotest.(check bool) "params conservative" true (Alias.may_alias al (p 6) (p 7));
  Alcotest.(check bool) "different spaces" false (Alias.may_alias al (p 8) (p 4));
  (* Root slots and loaded pointers get names, but a root slot may be
     re-set and a pointer re-loaded: both stay may-alias. *)
  let addr i = Option.map Alias.to_string (Alias.resolve_store_addr al (p i)) in
  Alcotest.(check (option string)) "root slot named" (Some "root[0]+1") (addr 11);
  Alcotest.(check (option string)) "loaded pointer named" (Some "*(root[0]+1)+1")
    (addr 13);
  Alcotest.(check bool) "root slot values conservative" true (Alias.may_alias al (p 10) (p 11));
  Alcotest.(check bool) "loaded pointers conservative" true (Alias.may_alias al (p 12) (p 13))

let test_alias_offsets_fold () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  let a = Builder.intr b Ir.Nv_alloc [ Ir.Imm 8L ] in
  let a2 = Builder.bin b Ir.Add (Ir.Reg a) (Ir.Imm 2L) in
  ignore (Builder.load b Ir.Persistent (Ir.Reg a) 2);      (* idx 2: a+2 *)
  Builder.store b Ir.Persistent (Ir.Reg a2) 0 (Ir.Imm 1L); (* idx 3: a+2 *)
  Builder.store b Ir.Persistent (Ir.Reg a2) 1 (Ir.Imm 1L); (* idx 4: a+3 *)
  Builder.ret b None;
  let f = Builder.finish b in
  let al = Alias.compute (Cfg.build f) in
  let p i = { Ir.blk = 0; idx = i } in
  Alcotest.(check bool) "a+2 aliases (a+2)+0" true (Alias.may_alias al (p 2) (p 3));
  Alcotest.(check bool) "a+2 distinct from (a+2)+1" false (Alias.may_alias al (p 2) (p 4))

let test_alias_multidef_conservative () =
  let b, ps = Builder.create ~name:"f" ~nparams:1 in
  let x = List.nth ps 0 in
  let a = Builder.intr b Ir.Nv_alloc [ Ir.Imm 8L ] in
  let r = Builder.mov b (Ir.Reg a) in
  Builder.if_ b (Ir.Reg x)
    ~then_:(fun () -> Builder.assign b r (Ir.Imm 64L))
    ~else_:(fun () -> ());
  ignore (Builder.load b Ir.Persistent (Ir.Reg r) 0);
  Builder.store b Ir.Persistent (Ir.Reg r) 1 (Ir.Imm 1L);
  Builder.ret b None;
  let f = Builder.finish b in
  let al = Alias.compute (Cfg.build f) in
  (* r is multiply defined: unknown, so even distinct offsets may alias. *)
  let join = 3 in
  Alcotest.(check bool) "multi-def conservative" true
    (Alias.may_alias al { Ir.blk = join; idx = 0 } { Ir.blk = join; idx = 1 })

let test_reaching_defs () =
  let f = loopy_fn () in
  let cfg = Cfg.build f in
  let rd = Reaching.compute cfg in
  (* Params reach the entry as virtual definitions. *)
  let n = List.nth f.Ir.params 0 in
  Alcotest.(check (list (pair int int)))
    "param def at entry"
    [ (-1, 0) ]
    (List.map (fun (p : Ir.pos) -> (p.Ir.blk, p.Ir.idx))
       (Reaching.defs_at rd { Ir.blk = 0; idx = 0 } n));
  (* The loop counter has two reaching definitions at the header (the
     init in entry and the increment in the body) and exactly one
     inside the body after the increment. *)
  let i =
    match f.Ir.blocks.(0).Ir.instrs.(0) with
    | Ir.Mov (d, _) -> d
    | _ -> Alcotest.fail "expected mov"
  in
  Alcotest.(check int) "two defs at loop header" 2
    (List.length (Reaching.defs_at rd { Ir.blk = 1; idx = 0 } i));
  Alcotest.(check bool) "unique def in entry" true
    (Reaching.unique_def rd { Ir.blk = 0; idx = 1 } i <> None)

let test_alias_per_use_resolution () =
  (* r is re-assigned between two memory operations: each use resolves
     through its own unique reaching definition, so the accesses are
     provably distinct — the precision a global single-assignment rule
     cannot give. *)
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  let a = Builder.intr b Ir.Nv_alloc [ Ir.Imm 8L ] in
  let c = Builder.intr b Ir.Nv_alloc [ Ir.Imm 8L ] in
  let r = Builder.mov b (Ir.Reg a) in
  ignore (Builder.load b Ir.Persistent (Ir.Reg r) 0);      (* idx 3: a+0 *)
  Builder.assign b r (Ir.Reg c);
  Builder.store b Ir.Persistent (Ir.Reg r) 0 (Ir.Imm 1L);  (* idx 5: c+0 *)
  Builder.ret b None;
  let f = Builder.finish b in
  let al = Alias.compute (Cfg.build f) in
  Alcotest.(check bool) "re-assigned register resolves per use" false
    (Alias.may_alias al { Ir.blk = 0; idx = 3 } { Ir.blk = 0; idx = 5 })

let test_alias_loop_carried_conservative () =
  (* cur := cur.next inside a loop: the loop-carried pointer cannot be
     resolved, so accesses through it must stay may-alias. *)
  let b, ps = Builder.create ~name:"f" ~nparams:1 in
  let head = List.nth ps 0 in
  let cur = Builder.mov b (Ir.Reg head) in
  Builder.while_ b
    ~cond:(fun () -> Ir.Reg (Builder.bin b Ir.Ne (Ir.Reg cur) (Ir.Imm 0L)))
    ~body:(fun () ->
      let nxt = Builder.load b Ir.Persistent (Ir.Reg cur) 1 in
      Builder.store b Ir.Persistent (Ir.Reg cur) 0 (Ir.Imm 1L);
      Builder.assign b cur (Ir.Reg nxt));
  Builder.ret b None;
  let f = Builder.finish b in
  let al = Alias.compute (Cfg.build f) in
  (* body block is 2: load at idx 0, store at idx 1 *)
  Alcotest.(check bool) "loop-carried pointer conservative" true
    (Alias.may_alias al { Ir.blk = 2; idx = 0 } { Ir.blk = 2; idx = 1 })

let test_alias_order_independent () =
  (* Loads are chased two levels deep.  Resolving the deepest use first
     reaches the load at idx 2 two levels down, where it is opaque; the
     load's own address must still resolve one level down. *)
  let chain () =
    let b, _ = Builder.create ~name:"f" ~nparams:0 in
    let r1 = Builder.intr b Ir.Root_get [ Ir.Imm 0L ] in
    let r2 = Builder.load b Ir.Persistent (Ir.Reg r1) 0 in
    let r3 = Builder.load b Ir.Persistent (Ir.Reg r2) 0 in   (* idx 2 *)
    let r4 = Builder.load b Ir.Persistent (Ir.Reg r3) 0 in
    Builder.store b Ir.Persistent (Ir.Reg r4) 0 (Ir.Imm 1L); (* idx 4 *)
    Builder.ret b None;
    Alias.compute (Cfg.build (Builder.finish b))
  in
  let addr al idx =
    match Alias.resolve_store_addr al { Ir.blk = 0; idx } with
    | Some e -> Alias.to_string e
    | None -> "-"
  in
  Alcotest.(check string) "fresh resolver" "*(root[0]+0)" (addr (chain ()) 2);
  let al = chain () in
  Alcotest.(check string) "deepest use" "?" (addr al 4);
  Alcotest.(check string) "after the deepest use" "*(root[0]+0)" (addr al 2)

(* ------------------------------------------------------------------ *)
(* FASE inference *)

let test_fase_nested_and_cross () =
  (* Nested: lock1 lock2 unlock2 unlock1; cross: lock1 lock2 unlock1 unlock2. *)
  List.iter
    (fun order ->
      let b, _ = Builder.create ~name:"f" ~nparams:0 in
      Builder.lock b (Ir.Imm 1L);
      Builder.lock b (Ir.Imm 2L);
      (match order with
      | `Nested ->
          Builder.unlock b (Ir.Imm 2L);
          Builder.unlock b (Ir.Imm 1L)
      | `Cross ->
          Builder.unlock b (Ir.Imm 1L);
          Builder.unlock b (Ir.Imm 2L));
      Builder.ret b None;
      let f = Builder.finish b in
      let cfg = Cfg.build f in
      let fase = Fase.compute_exn cfg in
      let p i = { Ir.blk = 0; idx = i } in
      Alcotest.(check int) "depth before first lock" 0 (Fase.depth_before fase (p 0));
      Alcotest.(check int) "depth inside" 2 (Fase.depth_before fase (p 2));
      Alcotest.(check bool) "outermost acquire" true (Fase.outermost_acquire fase (p 0));
      Alcotest.(check bool) "inner acquire not outermost" false
        (Fase.outermost_acquire fase (p 1));
      Alcotest.(check bool) "final release outermost" true
        (Fase.outermost_release fase (p 3));
      Alcotest.(check bool) "has fase" true (Fase.has_fase fase))
    [ `Nested; `Cross ]

let test_fase_durable () =
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.durable_begin b;
  Builder.store b Ir.Persistent (Ir.Imm 100L) 0 (Ir.Imm 1L);
  Builder.durable_end b;
  Builder.ret b None;
  let f = Builder.finish b in
  let fase = Fase.compute_exn (Cfg.build f) in
  Alcotest.(check bool) "store in durable FASE" true
    (Fase.in_fase fase { Ir.blk = 0; idx = 1 });
  Alcotest.(check bool) "durable flag" true
    (Fase.durable_before fase { Ir.blk = 0; idx = 1 })

(* ------------------------------------------------------------------ *)
(* Antidependence and region formation *)

let war_fn () =
  (* Classic WAR: load x; store x — plus an independent store. *)
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 7L);
  let v = Builder.load b Ir.Persistent (Ir.Imm 100L) 0 in
  let v1 = Builder.bin b Ir.Add (Ir.Reg v) (Ir.Imm 1L) in
  Builder.store b Ir.Persistent (Ir.Imm 200L) 0 (Ir.Reg v1);
  Builder.store b Ir.Persistent (Ir.Imm 100L) 0 (Ir.Reg v1);
  Builder.unlock b (Ir.Imm 7L);
  Builder.ret b None;
  Builder.finish b

let test_antidep_pairs () =
  let f = war_fn () in
  let cfg = Cfg.build f in
  let fase = Fase.compute_exn cfg in
  let alias = Alias.compute cfg in
  let pairs = Antidep.compute cfg fase alias in
  Alcotest.(check int) "exactly one WAR pair" 1 (List.length pairs);
  let pr = List.hd pairs in
  Alcotest.(check bool) "load at idx 1" true (pr.Antidep.load.Ir.idx = 1);
  Alcotest.(check bool) "store at idx 4" true (pr.Antidep.store.Ir.idx = 4);
  Alcotest.(check bool) "same block" true pr.Antidep.same_block

let plan_of f =
  let cfg = Cfg.build f in
  let fase = Fase.compute_exn cfg in
  let lv = Liveness.compute cfg in
  let alias = Alias.compute cfg in
  (cfg, fase, alias, Regions.compute cfg fase lv alias)

let test_region_cuts () =
  let f = war_fn () in
  let cfg, fase, alias, plan = plan_of f in
  (* Cuts after acquire, at release, plus a hitting-set cut between the
     WAR load and store. *)
  let poss =
    List.map (fun (c : Regions.cut) -> c.Regions.pos) plan.Regions.cuts
  in
  Alcotest.(check bool) "cut after acquire" true
    (List.mem { Ir.blk = 0; idx = 1 } poss);
  Alcotest.(check bool) "cut at release" true
    (List.mem { Ir.blk = 0; idx = 5 } poss);
  Alcotest.(check int) "one WAR pair" 1 plan.Regions.n_war_pairs;
  Alcotest.(check int) "one hitting cut" 1 plan.Regions.n_hitting;
  Alcotest.(check bool) "oracle: no WAR within regions" true
    (Regions.verify_no_war_within_regions cfg fase alias plan)

let test_hitting_set_shares_cuts () =
  (* Two overlapping WAR intervals must be covered by a single cut. *)
  let b, _ = Builder.create ~name:"f" ~nparams:0 in
  Builder.lock b (Ir.Imm 7L);
  let x = Builder.load b Ir.Persistent (Ir.Imm 100L) 0 in
  let y = Builder.load b Ir.Persistent (Ir.Imm 101L) 0 in
  let s = Builder.bin b Ir.Add (Ir.Reg x) (Ir.Reg y) in
  Builder.store b Ir.Persistent (Ir.Imm 100L) 0 (Ir.Reg s);
  Builder.store b Ir.Persistent (Ir.Imm 101L) 0 (Ir.Reg s);
  Builder.unlock b (Ir.Imm 7L);
  Builder.ret b None;
  let f = Builder.finish b in
  let cfg, fase, alias, plan = plan_of f in
  Alcotest.(check int) "two WAR pairs" 2 plan.Regions.n_war_pairs;
  Alcotest.(check int) "single shared cut (optimal cover)" 1 plan.Regions.n_hitting;
  Alcotest.(check bool) "oracle" true
    (Regions.verify_no_war_within_regions cfg fase alias plan)

let test_required_flags () =
  let f = war_fn () in
  let _, _, _, plan = plan_of f in
  List.iter
    (fun (c : Regions.cut) ->
      let is_lock_cut = c.pos.Ir.idx = 1 || c.pos.Ir.idx = 5 in
      if is_lock_cut then
        Alcotest.(check bool) "lock cuts elidable" false c.Regions.required
      else Alcotest.(check bool) "WAR cut required" true c.Regions.required)
    plan.Regions.cuts

let test_out_regs_eq1 () =
  let f = war_fn () in
  let _, _, _, plan = plan_of f in
  (* At the WAR cut (before the store at idx 4), v1 was defined in the
     closing region and is still live (used by the stores). *)
  let cut =
    List.find (fun (c : Regions.cut) -> c.Regions.required) plan.Regions.cuts
  in
  Alcotest.(check bool) "v1 in OutputSet" true (List.length cut.Regions.out_regs >= 1);
  Alcotest.(check bool) "live_in includes out_regs" true
    (List.for_all (fun r -> List.mem r cut.Regions.live_in) cut.Regions.out_regs)

let test_workload_region_plans_sound () =
  List.iter
    (fun name ->
      let prog = Ido_workloads.Workload.named name in
      List.iter
        (fun (_, f) ->
          let cfg = Cfg.build f in
          let fase = Fase.compute_exn cfg in
          if Fase.has_fase fase then begin
            let alias = Alias.compute cfg in
            let lv = Liveness.compute cfg in
            let plan = Regions.compute cfg fase lv alias in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s WAR-free regions" name f.Ir.name)
              true
              (Regions.verify_no_war_within_regions cfg fase alias plan)
          end)
        prog.Ir.funcs)
    Ido_workloads.Workload.names

let test_reaching_covers_all_uses () =
  (* In every validated workload function, every register use is
     reached by at least one definition (else execution would read an
     uninitialised register). *)
  List.iter
    (fun name ->
      let prog = Ido_workloads.Workload.named name in
      List.iter
        (fun (_, f) ->
          let cfg = Cfg.build f in
          let rd = Reaching.compute cfg in
          ignore
            (Ir.fold_instrs
               (fun () pos instr ->
                 if Cfg.reachable cfg pos.Ir.blk then
                   List.iter
                     (fun r ->
                       Alcotest.(check bool)
                         (Printf.sprintf "%s/%s r%d defined at (%d,%d)" name
                            f.Ir.name r pos.Ir.blk pos.Ir.idx)
                         true
                         (Reaching.defs_at rd pos r <> []))
                     (Ir.instr_uses instr))
               () f))
        prog.Ir.funcs)
    Ido_workloads.Workload.names

(* The query [Reaching.defs_at] replaced, kept as the reference: copy
   the block-entry definitions of every register and run the
   kill-and-gen transfer forward from index 0 up to the position. *)
let reference_defs_at rd (f : Ir.func) (pos : Ir.pos) reg =
  let tbl = Hashtbl.create 16 in
  for r = 0 to f.Ir.nregs - 1 do
    Hashtbl.replace tbl r (Reaching.defs_at rd { pos with Ir.idx = 0 } r)
  done;
  let instrs = f.Ir.blocks.(pos.Ir.blk).Ir.instrs in
  for i = 0 to min pos.Ir.idx (Array.length instrs) - 1 do
    List.iter
      (fun d -> Hashtbl.replace tbl d [ { pos with Ir.idx = i } ])
      (Ir.instr_defs instrs.(i))
  done;
  Option.value ~default:[] (Hashtbl.find_opt tbl reg)

(* Random CFGs over five registers, dense in redefinitions: up to six
   blocks of up to eight instructions, with arbitrary branches (loops,
   unreachable blocks and self-edges included). *)
let random_cfg_gen =
  let nregs = 5 in
  QCheck.Gen.(
    int_range 1 6 >>= fun nblocks ->
    let reg = int_bound (nregs - 1) and target = int_bound (nblocks - 1) in
    let instr =
      frequency
        [
          (3, map2 (fun d v -> Ir.Mov (d, Ir.Imm (Int64.of_int v))) reg small_nat);
          ( 2,
            map3 (fun d a b -> Ir.Bin (d, Ir.Add, Ir.Reg a, Ir.Reg b)) reg reg reg );
          ( 1,
            map2
              (fun a b ->
                Ir.Store
                  { space = Ir.Transient; base = Ir.Reg a; off = 0; src = Ir.Reg b })
              reg reg );
          ( 1,
            map (fun d -> Ir.Call { dst = Some d; func = "g"; args = [] }) reg );
        ]
    in
    let term =
      frequency
        [
          (2, map (fun b -> Ir.Br b) target);
          (2, map3 (fun c a b -> Ir.Cbr (Ir.Reg c, a, b)) reg target target);
          (1, return (Ir.Ret None));
        ]
    in
    let block i =
      map2
        (fun instrs term ->
          { Ir.label = Printf.sprintf "b%d" i; instrs = Array.of_list instrs; term })
        (list_size (int_range 0 8) instr)
        term
    in
    map
      (fun blocks ->
        { Ir.name = "random"; params = [ 0 ]; blocks = Array.of_list blocks; nregs })
      (flatten_l (List.init nblocks block)))

let prop_reaching_matches_reference =
  QCheck.Test.make ~name:"defs_at = clone-and-transfer reference" ~count:300
    (QCheck.make random_cfg_gen) (fun f ->
      let rd = Reaching.compute (Cfg.build f) in
      Array.for_all Fun.id
        (Array.mapi
           (fun blk (b : Ir.block) ->
             List.for_all
               (fun idx ->
                 let pos = { Ir.blk; idx } in
                 List.for_all
                   (fun r ->
                     Reaching.defs_at rd pos r = reference_defs_at rd f pos r
                     || QCheck.Test.fail_reportf "r%d at (%d,%d)" r blk idx)
                   (List.init (f.Ir.nregs + 1) Fun.id))
               (List.init (Array.length b.Ir.instrs + 1) Fun.id))
           f.Ir.blocks))

(* The eager reachability matrix [Cfg.build] once filled: one BFS per
   block, kept as the reference of the on-demand [Cfg.path_exists]. *)
let eager_reach (f : Ir.func) =
  let n = Array.length f.Ir.blocks in
  let succs = Array.map (fun (b : Ir.block) -> Ir.successors b.Ir.term) f.Ir.blocks in
  let reach = Array.init n (fun _ -> Array.make n false) in
  for b = 0 to n - 1 do
    let q = Queue.create () in
    List.iter (fun s -> Queue.add s q) succs.(b);
    while not (Queue.is_empty q) do
      let s = Queue.pop q in
      if not reach.(b).(s) then begin
        reach.(b).(s) <- true;
        List.iter (fun s' -> Queue.add s' q) succs.(s)
      end
    done
  done;
  fun (p : Ir.pos) (q : Ir.pos) -> (p.blk = q.blk && p.idx < q.idx) || reach.(p.blk).(q.blk)

(* Every position pair, queried forwards on one CFG and backwards on
   another, so rows are computed in both orders. *)
let prop_path_exists_matches_eager =
  QCheck.Test.make ~name:"on-demand path_exists = eager matrix" ~count:300
    (QCheck.make random_cfg_gen) (fun f ->
      let reference = eager_reach f in
      let positions =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun blk (b : Ir.block) ->
                  List.init (Array.length b.Ir.instrs + 1) (fun idx -> { Ir.blk; idx }))
                f.Ir.blocks))
      in
      let pairs = List.concat_map (fun p -> List.map (fun q -> (p, q)) positions) positions in
      List.for_all
        (fun order ->
          let cfg = Cfg.build f in
          List.for_all
            (fun ((p : Ir.pos), (q : Ir.pos)) ->
              Cfg.path_exists cfg p q = reference p q
              || QCheck.Test.fail_reportf "(%d,%d) -> (%d,%d)" p.blk p.idx q.blk q.idx)
            order)
        [ pairs; List.rev pairs ])

let suites =
  [
    ( "analysis.cfg",
      [
        Alcotest.test_case "structure" `Quick test_cfg_structure;
        Alcotest.test_case "rpo" `Quick test_cfg_rpo;
        Alcotest.test_case "dominators" `Quick test_dominators;
        Alcotest.test_case "back edges" `Quick test_back_edges;
        Alcotest.test_case "path exists" `Quick test_path_exists;
        QCheck_alcotest.to_alcotest prop_path_exists_matches_eager;
      ] );
    ( "analysis.liveness",
      [
        Alcotest.test_case "block level" `Quick test_liveness;
        Alcotest.test_case "instruction level" `Quick test_liveness_at_positions;
      ] );
    ( "analysis.alias",
      [
        Alcotest.test_case "basic precision" `Quick test_alias;
        Alcotest.test_case "offset folding" `Quick test_alias_offsets_fold;
        Alcotest.test_case "multi-def conservative" `Quick
          test_alias_multidef_conservative;
        Alcotest.test_case "per-use resolution" `Quick test_alias_per_use_resolution;
        Alcotest.test_case "order-independent resolution" `Quick
          test_alias_order_independent;
        Alcotest.test_case "loop-carried conservative" `Quick
          test_alias_loop_carried_conservative;
      ] );
    ( "analysis.reaching",
      [
        Alcotest.test_case "reaching definitions" `Quick test_reaching_defs;
        Alcotest.test_case "all uses defined" `Quick test_reaching_covers_all_uses;
        QCheck_alcotest.to_alcotest prop_reaching_matches_reference;
      ] );
    ( "analysis.fase",
      [
        Alcotest.test_case "nested and cross locking" `Quick test_fase_nested_and_cross;
        Alcotest.test_case "durable regions" `Quick test_fase_durable;
      ] );
    ( "analysis.regions",
      [
        Alcotest.test_case "antidep pairs" `Quick test_antidep_pairs;
        Alcotest.test_case "cut placement" `Quick test_region_cuts;
        Alcotest.test_case "hitting set optimal" `Quick test_hitting_set_shares_cuts;
        Alcotest.test_case "required flags" `Quick test_required_flags;
        Alcotest.test_case "OutputSet (Eq. 1)" `Quick test_out_regs_eq1;
        Alcotest.test_case "workload plans sound" `Quick
          test_workload_region_plans_sound;
      ] );
  ]
