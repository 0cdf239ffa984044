open Ido_ir
open Ido_analysis

type cls = Adjacent | Hoisted of Alias.expr | Orphan

type t = {
  func : Ir.func;
  grant : Ir.hook option;
  ins : Alias.expr list option array;  (** None = unreached (top) *)
  classes : (Ir.pos, cls) Hashtbl.t;
  alias : Alias.t;
}

(* Window boundaries: any instruction that changes the protection
   structure (or may, through a callee) resets the captured set — a
   capture only excuses a later grant within the same FASE/txn window,
   under the same log generation. *)
let clears = function
  | Ir.Lock _ | Ir.Unlock _ | Ir.Durable_begin | Ir.Durable_end | Ir.Call _ ->
      true
  | Ir.Intrinsic { intr = Ir.Nv_alloc | Ir.Nv_free | Ir.Root_set; _ } -> true
  | Ir.Hook
      ( Ir.Hfase_enter | Ir.Hfase_exit | Ir.Htxn_begin | Ir.Htxn_commit
      | Ir.Hdurable_commit ) ->
      true
  | _ -> false

let add cell cap = List.sort_uniq Alias.compare (cell :: cap)

let inter a b =
  let rec go a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | x :: xs, y :: ys ->
        let c = Alias.compare x y in
        if c = 0 then x :: go xs ys else if c < 0 then go xs b else go a ys
  in
  go a b

let eq_cap a b = List.compare Alias.compare a b = 0

let is_grant grant instr =
  match (grant, instr) with Some g, Ir.Hook h -> h = g | _ -> false

(* ------------------------------------------------------------------ *)
(* Hoisted-grant resolution: from just after a detached grant hook,
   every path either reaches a first persistent store whose cell the
   hook captures, or leaves the window (a clearing instruction, Ret)
   and contributes nothing.  Another grant hook or an unresolvable
   store on any path disqualifies — the runtime's armed slot holds one
   grant.  All contributing cells must be one stable expression. *)
let classify_hook grant alias (func : Ir.func) (pos : Ir.pos) =
  let cells = ref [] in
  let bad = ref false in
  let visited = Hashtbl.create 8 in
  let rec walk b i =
    let blk = func.Ir.blocks.(b) in
    let n = Array.length blk.Ir.instrs in
    let rec go i =
      if i >= n then List.iter visit (Ir.successors blk.Ir.term)
      else
        match blk.Ir.instrs.(i) with
        | Ir.Store { space = Ir.Persistent; _ } -> (
            match Alias.resolve_store_addr alias { Ir.blk = b; idx = i } with
            | Some cell when Alias.is_stable cell -> cells := cell :: !cells
            | _ -> bad := true)
        | instr when is_grant grant instr -> bad := true
        | instr when clears instr -> ()
        | _ -> go (i + 1)
    in
    go i
  and visit b =
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.add visited b ();
      walk b 0
    end
  in
  walk pos.Ir.blk (pos.Ir.idx + 1);
  match (!bad, !cells) with
  | true, _ | _, [] -> Orphan
  | false, c :: rest ->
      if List.for_all (Alias.equal c) rest then Hoisted c else Orphan

(* ------------------------------------------------------------------ *)

(* One instruction of the must-captured transfer function.  The block
   layout decides the capture kind: a store immediately preceded by the
   grant hook is an adjacent capture (the pair the instrumenter emits);
   a detached grant hook captures its resolved hoist cell. *)
let step t (blk : Ir.block) b i cap =
  let instr = blk.Ir.instrs.(i) in
  if clears instr then []
  else if is_grant t.grant instr then
    match Hashtbl.find_opt t.classes { Ir.blk = b; idx = i } with
    | Some (Hoisted cell) -> add cell cap
    | _ -> cap
  else
    match instr with
    | Ir.Store _ when i > 0 && is_grant t.grant blk.Ir.instrs.(i - 1) -> (
        match Alias.resolve_store_addr t.alias { Ir.blk = b; idx = i } with
        | Some cell when Alias.is_stable cell -> add cell cap
        | _ -> cap)
    | _ -> cap

let block_out t b cap0 =
  let blk = t.func.Ir.blocks.(b) in
  let cap = ref cap0 in
  for i = 0 to Array.length blk.Ir.instrs - 1 do
    cap := step t blk b i !cap
  done;
  !cap

let compute scheme alias (func : Ir.func) =
  let props = Ido_runtime.Scheme.props scheme in
  let grant = props.grant in
  let classes = Hashtbl.create 8 in
  (match grant with
  | None -> ()
  | Some g ->
      ignore
        (Ir.fold_instrs
           (fun () pos instr ->
             match instr with
             | Ir.Hook h when h = g ->
                 let blk = func.Ir.blocks.(pos.Ir.blk) in
                 let adjacent =
                   pos.Ir.idx + 1 < Array.length blk.Ir.instrs
                   &&
                   match blk.Ir.instrs.(pos.Ir.idx + 1) with
                   | Ir.Store _ -> true
                   | _ -> false
                 in
                 let cls =
                   if adjacent then Adjacent
                   else if props.grant_hoistable then
                     classify_hook grant alias func pos
                   else Orphan
                 in
                 Hashtbl.replace classes pos cls
             | _ -> ())
           () func));
  let t = { func; grant; ins = [||]; classes; alias } in
  let ins =
    Dataflow.forward func ~entry:[] ~transfer:(block_out t) ~join:inter
      ~equal:eq_cap
  in
  { t with ins }

let classify t pos =
  match Hashtbl.find_opt t.classes pos with Some c -> c | None -> Orphan

let captured_before t (pos : Ir.pos) =
  match t.ins.(pos.Ir.blk) with
  | None -> []
  | Some cap0 ->
      let blk = t.func.Ir.blocks.(pos.Ir.blk) in
      let cap = ref cap0 in
      for i = 0 to pos.Ir.idx - 1 do
        cap := step t blk pos.Ir.blk i !cap
      done;
      !cap

let mem t pos cell =
  List.exists (Alias.equal cell) (captured_before t pos)
