open Ido_ir

type base =
  | Alloca of int
  | Heap of int
  | Const of int64
  | Param of int
  | Root of int
  | Loaded of expr * int
  | Unknown

and expr = { base : base; delta : int }

type t = {
  func : Ir.func;
  reaching : Reaching.t;
  memo : (Ir.pos * Ir.reg * int, expr) Hashtbl.t;
}

let site_of (p : Ir.pos) = (p.blk * 0x100000) + p.idx

let compute cfg =
  let func = Cfg.func cfg in
  { func; reaching = Reaching.compute cfg; memo = Hashtbl.create 64 }

let unknown = { base = Unknown; delta = 0 }

let instr_at t (p : Ir.pos) =
  if p.blk < 0 || p.blk >= Array.length t.func.blocks then None
  else begin
    let blk = t.func.blocks.(p.blk) in
    if p.idx < Array.length blk.instrs then Some blk.instrs.(p.idx) else None
  end

let max_load_depth = 2

(* Resolve the value of [r] as seen just before [at]: when a unique
   definition reaches, chase it (recursively resolving its operands at
   the definition site).  [seen] cuts loop-carried self-definitions,
   which resolve to [Unknown] from every entry point.  The memo is
   keyed on [depth] too: the same use reached through fewer loads may
   chase further. *)
let rec resolve_reg t ~seen ~depth ~at r =
  let key = (at, r, depth) in
  match Hashtbl.find_opt t.memo key with
  | Some e -> e
  | None ->
      let e =
        if List.mem (at, r) seen then unknown
        else begin
          let seen = (at, r) :: seen in
          match Reaching.unique_def t.reaching at r with
          | None -> unknown
          | Some d when d.Ir.blk = -1 -> { base = Param d.Ir.idx; delta = 0 }
          | Some d -> (
              match instr_at t d with
              | Some (Alloca (_, _)) -> { base = Alloca (site_of d); delta = 0 }
              | Some (Intrinsic { intr = Nv_alloc; _ }) ->
                  { base = Heap (site_of d); delta = 0 }
              | Some (Intrinsic { intr = Root_get; args = [ Imm k ]; _ }) ->
                  { base = Root (Int64.to_int k); delta = 0 }
              | Some (Mov (_, op)) -> resolve t ~seen ~depth ~at:d op
              | Some (Bin (_, Add, a, Imm k)) | Some (Bin (_, Add, Imm k, a)) ->
                  let e = resolve t ~seen ~depth ~at:d a in
                  if e.base = Unknown then unknown
                  else { e with delta = e.delta + Int64.to_int k }
              | Some (Bin (_, Sub, a, Imm k)) ->
                  let e = resolve t ~seen ~depth ~at:d a in
                  if e.base = Unknown then unknown
                  else { e with delta = e.delta - Int64.to_int k }
              | Some (Load { space = Persistent; base; off; _ })
                when depth < max_load_depth -> (
                  let a = resolve t ~seen ~depth:(depth + 1) ~at:d base in
                  match a.base with
                  | Unknown -> unknown
                  | _ -> { base = Loaded (a, off); delta = 0 })
              | _ -> unknown)
        end
      in
      Hashtbl.replace t.memo key e;
      e

and resolve t ~seen ~depth ~at = function
  | Ir.Reg r -> resolve_reg t ~seen ~depth ~at r
  | Ir.Imm i -> { base = Const i; delta = 0 }

let resolve_operand t ~at op = resolve t ~seen:[] ~depth:0 ~at op

let address t pos base off =
  let e = resolve_operand t ~at:pos base in
  if e.base = Unknown then e else { e with delta = e.delta + off }

let resolve_store_addr t pos =
  match instr_at t pos with
  | Some (Load { base; off; _ }) | Some (Store { base; off; _ }) ->
      Some (address t pos base off)
  | _ -> None

let is_stable e =
  match e.base with
  | Alloca _ | Heap _ | Const _ | Param _ | Root _ -> true
  | Loaded _ | Unknown -> false

let rec compare_base a b =
  match (a, b) with
  | Loaded (e1, o1), Loaded (e2, o2) ->
      let c = compare e1 e2 in
      if c <> 0 then c else Stdlib.compare o1 o2
  | _ -> Stdlib.compare a b

and compare a b =
  let c = compare_base a.base b.base in
  if c <> 0 then c else Stdlib.compare a.delta b.delta

let equal a b = compare a b = 0

let rec base_to_string = function
  | Alloca s -> Printf.sprintf "alloca@%d" s
  | Heap s -> Printf.sprintf "heap@%d" s
  | Const k -> Int64.to_string k
  | Param i -> Printf.sprintf "param%d" i
  | Root k -> Printf.sprintf "root[%d]" k
  | Loaded (e, off) -> Printf.sprintf "*(%s+%d)" (to_string e) off
  | Unknown -> "?"

and to_string e =
  if e.delta = 0 then base_to_string e.base
  else Printf.sprintf "%s+%d" (base_to_string e.base) e.delta

(* The address space and address of a memory access.  Root slots live
   in the persistent header and allocator calls touch its metadata:
   both are unknown persistent accesses. *)
let access t pos =
  match instr_at t pos with
  | Some (Load { space; base; off; _ }) | Some (Store { space; base; off; _ }) ->
      (space, address t pos base off)
  | Some (Intrinsic { intr = Root_get | Root_set | Nv_alloc | Nv_free; _ }) ->
      (Persistent, unknown)
  | _ -> invalid_arg "Alias.may_alias: not a memory operation"

(* Only allocation sites, constants and parameters separate accesses: a
   root slot's value or a loaded pointer may be anything. *)
let known e =
  match e.base with
  | Alloca _ | Heap _ | Const _ | Param _ -> true
  | Root _ | Loaded _ | Unknown -> false

let base_distinct b1 b2 =
  (* Distinct allocation sites yield distinct objects; constants are
     absolute.  Parameters may equal anything except fresh allocations
     (which did not exist at entry and never flow back within a single
     resolved chain), handled conservatively: params only separate from
     sites and constants when the other side is a fresh allocation. *)
  match (b1, b2) with
  | Alloca a, Alloca b -> a <> b
  | Heap a, Heap b -> a <> b
  | Alloca _, Heap _ | Heap _, Alloca _ -> true
  | Const _, (Alloca _ | Heap _) | (Alloca _ | Heap _), Const _ -> true
  | _ -> false

let may_alias t p q =
  let s2, e2 = access t q in
  let s1, e1 = access t p in
  if s1 <> s2 then false
  else if not (known e1 && known e2) then true
  else begin
    match (e1.base, e2.base) with
    | Const a, Const b ->
        Int64.add a (Int64.of_int e1.delta) = Int64.add b (Int64.of_int e2.delta)
    | _ ->
        if base_distinct e1.base e2.base then false
        else if e1.base = e2.base then e1.delta = e2.delta
        else true
  end
