open Ido_ir

module PosSet = Set.Make (struct
  type t = Ir.pos

  let compare = Ir.compare_pos
end)

module Rmap = Map.Make (Int)

type t = {
  cfg : Cfg.t;
  (* per block: reaching-definition map at block entry *)
  entry : PosSet.t Rmap.t array;
}

let param_pos i = { Ir.blk = -1; idx = i }

(* Kill-and-gen through one block: a definition replaces every
   reaching definition of its register. *)
let block_out (f : Ir.func) b defs =
  let defs = ref defs in
  Array.iteri
    (fun idx instr ->
      List.iter
        (fun d -> defs := Rmap.add d (PosSet.singleton { Ir.blk = b; idx }) !defs)
        (Ir.instr_defs instr))
    f.Ir.blocks.(b).Ir.instrs;
  !defs

let compute cfg =
  let f = Cfg.func cfg in
  (* Parameters reach the function entry. *)
  let params =
    List.mapi (fun i r -> (r, PosSet.singleton (param_pos i))) f.Ir.params
    |> List.to_seq |> Rmap.of_seq
  in
  let entry =
    Dataflow.forward f ~entry:params ~transfer:(block_out f)
      ~join:(Rmap.union (fun _ a b -> Some (PosSet.union a b)))
      ~equal:(Rmap.equal PosSet.equal)
  in
  { cfg; entry = Array.map (Option.value ~default:Rmap.empty) entry }

(* The last definition of [reg] before [pos] in its block kills every
   other, so scan back from [pos] and fall back to the block-entry
   table only when the block defines nothing earlier. *)
let defs_at t (pos : Ir.pos) reg =
  let instrs = (Cfg.func t.cfg).Ir.blocks.(pos.blk).Ir.instrs in
  let rec scan i =
    if i < 0 then
      match Rmap.find_opt reg t.entry.(pos.blk) with
      | Some s -> PosSet.elements s
      | None -> []
    else if Ir.defines instrs.(i) reg then [ { Ir.blk = pos.blk; idx = i } ]
    else scan (i - 1)
  in
  scan (min pos.idx (Array.length instrs) - 1)

let unique_def t pos reg =
  match defs_at t pos reg with [ d ] -> Some d | _ -> None
