open Ido_ir

(* Per-region register sets precomputed at image build, so the hot
   boundary path (exec_region_boundary runs once per region entry)
   does no sorting or linear membership scans. *)
type region_meta = {
  n_live_in : int;
  live_in_sorted : int array;  (* ascending, deduped *)
  first_regs : int list;  (* sort_uniq (live_in @ out_regs) *)
  out_sorted : int list;  (* sort_uniq out_regs *)
}

(* One function, resolved once at build so the interpreter's per-step
   lookups are array indexings: a frame holds its function's entry. *)
type entry = {
  name : string;
  func : Ir.func;
  base : int array;
      (* block b -> pc of slot (b, 0); base.(nblocks) is one past the
         function's last slot, so block b has base.(b+1) - base.(b)
         slots *)
  regions : region_meta option array;  (* region_id -> meta *)
  mutable calls : entry option array;
      (* slot (pc - base.(0)) -> the resolved callee of the Call there;
         None elsewhere and for a callee absent from the program *)
}

type t = {
  table : (string * Ir.pos) array;  (* pc - 1 -> position *)
  entries : (string, entry) Hashtbl.t;
  max_regs : int;
}

let meta_of_hook (rh : Ir.region_hook) =
  {
    n_live_in = List.length rh.live_in;
    live_in_sorted =
      Array.of_list (List.sort_uniq compare rh.live_in);
    first_regs = List.sort_uniq compare (rh.live_in @ rh.out_regs);
    out_sorted = List.sort_uniq compare rh.out_regs;
  }

let region_table (func : Ir.func) =
  let hooks =
    Ir.fold_instrs
      (fun acc _ -> function Ir.Hook (Ir.Hregion rh) -> rh :: acc | _ -> acc)
      [] func
  in
  let n =
    List.fold_left
      (fun n (rh : Ir.region_hook) -> max n (rh.region_id + 1))
      0 hooks
  in
  let regions = Array.make n None in
  (* In program order, so a repeated id keeps its last hook. *)
  List.iter
    (fun (rh : Ir.region_hook) ->
      if rh.region_id >= 0 then regions.(rh.region_id) <- Some (meta_of_hook rh))
    (List.rev hooks);
  regions

let build (program : Ir.program) =
  let table = ref [] in
  let entries = Hashtbl.create 16 in
  let count = ref 0 in
  let max_regs = ref 0 in
  List.iter
    (fun (name, (f : Ir.func)) ->
      if f.nregs > !max_regs then max_regs := f.nregs;
      let nblocks = Array.length f.blocks in
      let base = Array.make (nblocks + 1) (!count + 1) in
      Array.iteri
        (fun b (blk : Ir.block) ->
          base.(b) <- !count + 1;
          for i = 0 to Array.length blk.instrs do
            incr count;
            table := (name, { Ir.blk = b; idx = i }) :: !table
          done)
        f.blocks;
      base.(nblocks) <- !count + 1;
      Hashtbl.replace entries name
        { name; func = f; base; regions = region_table f; calls = [||] })
    program.funcs;
  (* Resolve call targets once every entry exists (calls may recurse). *)
  Hashtbl.iter
    (fun _ e ->
      let calls = Array.make (e.base.(Array.length e.base - 1) - e.base.(0)) None in
      ignore
        (Ir.fold_instrs
           (fun () (pos : Ir.pos) -> function
             | Ir.Call { func; _ } ->
                 calls.(e.base.(pos.blk) - e.base.(0) + pos.idx) <-
                   Hashtbl.find_opt entries func
             | _ -> ())
           () e.func);
      e.calls <- calls)
    entries;
  {
    table = Array.of_list (List.rev !table);
    entries;
    max_regs = !max_regs;
  }

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None -> invalid_arg ("Image.entry: unknown function " ^ name)

let name e = e.name
let ir e = e.func

let pc e ~blk ~idx =
  if blk < 0 || blk >= Array.length e.base - 1 || idx < 0
     || idx >= e.base.(blk + 1) - e.base.(blk)
  then
    invalid_arg
      (Printf.sprintf "Image.pc: bad position (%d,%d) in %s" blk idx e.name)
  else e.base.(blk) + idx

let pos_of_pc t pc =
  if pc <= 0 || pc > Array.length t.table then
    invalid_arg (Printf.sprintf "Image.pos_of_pc: bad pc %d" pc)
  else t.table.(pc - 1)

let region e region_id =
  match
    if region_id >= 0 && region_id < Array.length e.regions then
      e.regions.(region_id)
    else None
  with
  | Some meta -> meta
  | None ->
      invalid_arg
        (Printf.sprintf "Image.region: unknown region %d in %s" region_id
           e.name)

let callee e ~blk ~idx =
  match e.calls.(pc e ~blk ~idx - e.base.(0)) with
  | Some c -> c
  | None -> (
      let instrs = e.func.blocks.(blk).instrs in
      match if idx < Array.length instrs then Some instrs.(idx) else None with
      | Some (Ir.Call { func; _ }) ->
          invalid_arg ("Image.callee: unknown function " ^ func)
      | _ ->
          invalid_arg
            (Printf.sprintf "Image.callee: no call at (%d,%d) in %s" blk idx
               e.name))

(* Membership in the sorted live-in set, for filtering owed OutputSets
   at a persisted boundary. *)
let live_in_mem meta r =
  let a = meta.live_in_sorted in
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = r then true
      else if a.(mid) < r then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

let max_regs t = t.max_regs
