open Ido_ir

module PosSet = Set.Make (struct
  type t = Ir.pos

  let compare = Ir.compare_pos
end)

type t = {
  cfg : Cfg.t;
  (* per block: reaching-definition map at block entry *)
  entry : (Ir.reg, PosSet.t) Hashtbl.t array;
}

let param_pos i = { Ir.blk = -1; idx = i }

let clone_tbl tbl =
  let t = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (Hashtbl.replace t) tbl;
  t

let tbl_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun r s acc ->
         acc
         && match Hashtbl.find_opt b r with Some s' -> PosSet.equal s s' | None -> false)
       a true

(* Kill-and-gen through one instruction: a definition replaces every
   reaching definition of its register. *)
let transfer tbl pos instr =
  List.iter
    (fun d -> Hashtbl.replace tbl d (PosSet.singleton pos))
    (Ir.instr_defs instr)

let block_out f tbl b =
  let tbl = clone_tbl tbl in
  Array.iteri
    (fun i instr -> transfer tbl { Ir.blk = b; idx = i } instr)
    f.Ir.blocks.(b).Ir.instrs;
  tbl

let merge_into dst src =
  let changed = ref false in
  Hashtbl.iter
    (fun r s ->
      let cur = Option.value ~default:PosSet.empty (Hashtbl.find_opt dst r) in
      let u = PosSet.union cur s in
      if not (PosSet.equal u cur) then begin
        Hashtbl.replace dst r u;
        changed := true
      end)
    src;
  !changed

let compute cfg =
  let f = Cfg.func cfg in
  let n = Array.length f.Ir.blocks in
  let entry = Array.init n (fun _ -> Hashtbl.create 16) in
  (* Parameters reach the function entry. *)
  List.iteri
    (fun i r -> Hashtbl.replace entry.(0) r (PosSet.singleton (param_pos i)))
    f.Ir.params;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let out = block_out f entry.(b) b in
        List.iter
          (fun s ->
            let before = clone_tbl entry.(s) in
            if merge_into entry.(s) out && not (tbl_equal before entry.(s)) then
              changed := true)
          (Cfg.succs cfg b))
      (Cfg.reverse_postorder cfg)
  done;
  { cfg; entry }

(* The last definition of [reg] before [pos] in its block kills every
   other, so scan back from [pos] and fall back to the block-entry
   table only when the block defines nothing earlier. *)
let defs_at t (pos : Ir.pos) reg =
  let instrs = (Cfg.func t.cfg).Ir.blocks.(pos.blk).Ir.instrs in
  let rec scan i =
    if i < 0 then
      match Hashtbl.find_opt t.entry.(pos.blk) reg with
      | Some s -> PosSet.elements s
      | None -> []
    else if Ir.defines instrs.(i) reg then [ { Ir.blk = pos.blk; idx = i } ]
    else scan (i - 1)
  in
  scan (min pos.idx (Array.length instrs) - 1)

let unique_def t pos reg =
  match defs_at t pos reg with [ d ] -> Some d | _ -> None
