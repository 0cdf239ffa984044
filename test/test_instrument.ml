open Ido_ir
open Ido_runtime
open Ido_instrument
module Validate = Ido_analysis.Validate

(* Count hooks of each kind in a function. *)
let count_hooks pred f =
  Ir.fold_instrs
    (fun acc _ instr ->
      match instr with Ir.Hook h when pred h -> acc + 1 | _ -> acc)
    0 f

let count_instr pred f =
  Ir.fold_instrs (fun acc _ i -> if pred i then acc + 1 else acc) 0 f

let stack_push scheme =
  let prog = Ido_workloads.Workload.named "stack" in
  Ir.find_func (Instrument.instrument scheme prog) "stack_push"

let is_region = function Ir.Hregion _ -> true | _ -> false
let is_enter = function Ir.Hfase_enter -> true | _ -> false
let is_exit = function Ir.Hfase_exit -> true | _ -> false
let is_acquired = function Ir.Hlock_acquired -> true | _ -> false
let is_release = function Ir.Hlock_release _ -> true | _ -> false
let is_justdo = function Ir.Hjustdo_store -> true | _ -> false
let is_undo = function Ir.Hundo_store -> true | _ -> false
let is_txn_begin = function Ir.Htxn_begin -> true | _ -> false
let is_txn_commit = function Ir.Htxn_commit -> true | _ -> false
let is_page = function Ir.Hpage_log -> true | _ -> false
let is_commit = function Ir.Hdurable_commit -> true | _ -> false
let is_lock = function Ir.Lock _ -> true | _ -> false
let is_unlock = function Ir.Unlock _ -> true | _ -> false

let in_fase_stores f =
  let cfg = Ido_analysis.Cfg.build f in
  let fase = Ido_analysis.Fase.compute_exn cfg in
  Ir.fold_instrs
    (fun acc pos i ->
      match i with
      | Ir.Store { space = Ir.Persistent; _ } when Ido_analysis.Fase.in_fase fase pos ->
          acc + 1
      | _ -> acc)
    0 f

let test_origin_identity () =
  let prog = Ido_workloads.Workload.named "stack" in
  let f0 = Ir.find_func prog "stack_push" in
  let f1 = stack_push Scheme.Origin in
  Alcotest.(check int) "no hooks added" 0 (count_hooks (fun _ -> true) f1);
  Alcotest.(check int) "same instruction count"
    (count_instr (fun _ -> true) f0)
    (count_instr (fun _ -> true) f1)

let test_ido_hooks () =
  let f = stack_push Scheme.Ido in
  Alcotest.(check bool) "has region boundaries" true (count_hooks is_region f >= 3);
  Alcotest.(check int) "one enter" 1 (count_hooks is_enter f);
  Alcotest.(check int) "one exit" 1 (count_hooks is_exit f);
  Alcotest.(check int) "one acquire record" 1 (count_hooks is_acquired f);
  Alcotest.(check int) "one release record" 1 (count_hooks is_release f);
  Alcotest.(check int) "no per-store hooks" 0
    (count_hooks (fun h -> is_justdo h || is_undo h) f)

let test_ido_hook_order () =
  (* After the Lock: Hfase_enter, Hlock_acquired, then a boundary. *)
  let f = stack_push Scheme.Ido in
  let instrs = f.Ir.blocks.(0).Ir.instrs in
  let lock_at = ref (-1) in
  Array.iteri (fun i x -> if is_lock x then lock_at := i) instrs;
  Alcotest.(check bool) "found lock" true (!lock_at >= 0);
  (match
     (instrs.(!lock_at + 1), instrs.(!lock_at + 2), instrs.(!lock_at + 3))
   with
  | Ir.Hook Ir.Hfase_enter, Ir.Hook Ir.Hlock_acquired, Ir.Hook (Ir.Hregion _) -> ()
  | _ -> Alcotest.fail "unexpected hook order after acquire")

let test_ido_release_region_flags () =
  let f = stack_push Scheme.Ido in
  (* The boundary immediately preceding the release record is flagged
     at_release (its pc update defers to the release fence). *)
  let found = ref false in
  Array.iter
    (fun (blk : Ir.block) ->
      let n = Array.length blk.Ir.instrs in
      for i = 0 to n - 2 do
        match (blk.Ir.instrs.(i), blk.Ir.instrs.(i + 1)) with
        | Ir.Hook (Ir.Hregion rh), Ir.Hook (Ir.Hlock_release _) ->
            found := true;
            Alcotest.(check bool) "at_release flag" true rh.Ir.at_release
        | _ -> ()
      done)
    f.Ir.blocks;
  Alcotest.(check bool) "found release boundary" true !found

let test_justdo_hooks () =
  let f = stack_push Scheme.Justdo in
  Alcotest.(check int) "one justdo hook per in-FASE store"
    (in_fase_stores f) (count_hooks is_justdo f);
  Alcotest.(check int) "no regions" 0 (count_hooks is_region f);
  Alcotest.(check int) "lock records" 2
    (count_hooks (fun h -> is_acquired h || is_release h) f)

let test_atlas_hooks () =
  let f = stack_push Scheme.Atlas in
  Alcotest.(check int) "one undo hook per in-FASE store"
    (in_fase_stores f) (count_hooks is_undo f);
  Alcotest.(check int) "FASE-end commit" 1 (count_hooks is_commit f);
  Alcotest.(check int) "lock records" 2
    (count_hooks (fun h -> is_acquired h || is_release h) f)

let test_mnemosyne_locks_replaced () =
  let f = stack_push Scheme.Mnemosyne in
  Alcotest.(check int) "locks elided" 0 (count_instr is_lock f);
  Alcotest.(check int) "unlocks elided" 0 (count_instr is_unlock f);
  Alcotest.(check int) "txn begin" 1 (count_hooks is_txn_begin f);
  Alcotest.(check int) "txn commit" 1 (count_hooks is_txn_commit f)

let test_mnemosyne_inner_locks_elided () =
  (* Hand-over-hand: every lock disappears, a single txn remains. *)
  let prog = Ido_workloads.Workload.named "olist" in
  let f = Ir.find_func (Instrument.instrument Scheme.Mnemosyne prog) "list_put" in
  Alcotest.(check int) "no locks" 0 (count_instr is_lock f);
  Alcotest.(check int) "one begin" 1 (count_hooks is_txn_begin f);
  Alcotest.(check int) "one commit" 1 (count_hooks is_txn_commit f)

let test_nvthreads_hooks () =
  let f = stack_push Scheme.Nvthreads in
  Alcotest.(check int) "page hook per in-FASE store"
    (in_fase_stores f) (count_hooks is_page f);
  Alcotest.(check int) "commit at release" 1 (count_hooks is_commit f)

let test_nvml_ignores_lock_fases () =
  let f = stack_push Scheme.Nvml in
  Alcotest.(check int) "library cannot see lock FASEs" 0
    (count_hooks (fun _ -> true) f)

let test_nvml_durable_regions () =
  let prog = Ido_workloads.Workload.named "objstore" in
  let f = Ir.find_func (Instrument.instrument Scheme.Nvml prog) "obj_put" in
  Alcotest.(check bool) "undo hooks present" true (count_hooks is_undo f > 0);
  Alcotest.(check int) "commit" 1 (count_hooks is_commit f);
  let g = Ir.find_func (Instrument.instrument Scheme.Nvml prog) "obj_get" in
  Alcotest.(check int) "read path untouched" 0 (count_hooks (fun _ -> true) g)

let test_instrumented_validates () =
  List.iter
    (fun scheme ->
      List.iter
        (fun name ->
          let prog =
            Instrument.instrument scheme (Ido_workloads.Workload.named name)
          in
          Alcotest.(check (list string))
            (Scheme.name scheme ^ "/" ^ name)
            []
            (List.map Ido_analysis.Diag.render
               (Validate.check_program_diags ~allow_hooks:true prog)))
        Ido_workloads.Workload.names)
    Scheme.all

let test_hregion_hooks_only_in_fase () =
  (* Every Hregion in every instrumented workload lies inside a FASE
     (or at its border). *)
  List.iter
    (fun name ->
      let prog = Instrument.instrument Scheme.Ido (Ido_workloads.Workload.named name) in
      List.iter
        (fun (_, f) ->
          let cfg = Ido_analysis.Cfg.build f in
          match Ido_analysis.Fase.compute cfg with
          | Error e -> Alcotest.fail e
          | Ok fase ->
              ignore
                (Ir.fold_instrs
                   (fun () pos i ->
                     match i with
                     | Ir.Hook (Ir.Hregion _) ->
                         Alcotest.(check bool)
                           (Printf.sprintf "%s/%s region hook in FASE" name f.Ir.name)
                           true
                           (Ido_analysis.Fase.covers fase pos
                           || Ido_analysis.Fase.in_fase fase pos)
                     | _ -> ())
                   () f))
        prog.Ir.funcs)
    [ "stack"; "queue"; "olist"; "hmap" ]

let suites =
  [
    ( "instrument",
      [
        Alcotest.test_case "origin identity" `Quick test_origin_identity;
        Alcotest.test_case "ido hooks" `Quick test_ido_hooks;
        Alcotest.test_case "ido hook order" `Quick test_ido_hook_order;
        Alcotest.test_case "ido release flags" `Quick test_ido_release_region_flags;
        Alcotest.test_case "justdo hooks" `Quick test_justdo_hooks;
        Alcotest.test_case "atlas hooks" `Quick test_atlas_hooks;
        Alcotest.test_case "mnemosyne replaces locks" `Quick
          test_mnemosyne_locks_replaced;
        Alcotest.test_case "mnemosyne hand-over-hand" `Quick
          test_mnemosyne_inner_locks_elided;
        Alcotest.test_case "nvthreads hooks" `Quick test_nvthreads_hooks;
        Alcotest.test_case "nvml ignores lock FASEs" `Quick
          test_nvml_ignores_lock_fases;
        Alcotest.test_case "nvml durable regions" `Quick test_nvml_durable_regions;
        Alcotest.test_case "instrumented programs validate" `Quick
          test_instrumented_validates;
        Alcotest.test_case "region hooks in FASEs" `Quick
          test_hregion_hooks_only_in_fase;
      ] );
  ]
