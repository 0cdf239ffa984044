open Ido_ir
open Ido_runtime

type t = { func : Ir.func; scheme : Scheme.t; ins : bool array }

(* Instructions that may dirty in-FASE program data under [scheme] —
   the same set Transfer's [store_dirties_data] tracks, widened to be
   context-insensitive (a store outside protection still marks the
   function dirty here; may-analysis errs toward "dirty"). *)
let dirties scheme = function
  | Ir.Store { space = Ir.Persistent; _ } -> true
  | Ir.Store { space = Ir.Stack; _ } -> (Scheme.props scheme).stack_in_pmem
  | Ir.Call _ -> true
  | Ir.Intrinsic { intr = Ir.Nv_alloc | Ir.Nv_free | Ir.Root_set; _ } -> true
  | _ -> false

(* Nothing in the function can dirty in-FASE program data: such a FASE
   has nothing for recovery to redo or undo. *)
let write_free scheme (f : Ir.func) =
  not (Ir.fold_instrs (fun acc _ i -> acc || dirties scheme i) false f)

(* Points where the runtime's tracked-line set is known empty again:
   FASE entry resets it, a durable-commit hook flushes and fences it. *)
let clears = function
  | Ir.Hook Ir.Hfase_enter | Ir.Hook Ir.Hdurable_commit -> true
  | _ -> false

let step scheme dirty instr =
  if clears instr then false else dirty || dirties scheme instr

let block_out scheme (blk : Ir.block) dirty0 =
  Array.fold_left (step scheme) dirty0 blk.Ir.instrs

let compute scheme (func : Ir.func) =
  let ins =
    Ido_analysis.Dataflow.forward func ~entry:false
      ~transfer:(fun b -> block_out scheme func.Ir.blocks.(b))
      ~join:( || ) ~equal:Bool.equal
  in
  { func; scheme; ins = Array.map (Option.value ~default:false) ins }

let dirty_at t (pos : Ir.pos) =
  let blk = t.func.Ir.blocks.(pos.Ir.blk) in
  let dirty = ref t.ins.(pos.Ir.blk) in
  for i = 0 to pos.Ir.idx - 1 do
    dirty := step t.scheme !dirty blk.Ir.instrs.(i)
  done;
  !dirty
