open Ido_ir

type base =
  | Alloca_site of int  (* block*2^20+idx of the defining alloca *)
  | Heap_site of int  (* likewise, for [nv_alloc] *)
  | Const of int64
  | Param of int
  | Unknown

type expr = { base : base; delta : int }

type t = {
  func : Ir.func;
  reaching : Reaching.t;
  memo : (Ir.pos * int, expr) Hashtbl.t;
}

let site_of (p : Ir.pos) = (p.blk * 0x100000) + p.idx

let compute (func : Ir.func) =
  let cfg = Cfg.build func in
  { func; reaching = Reaching.compute cfg; memo = Hashtbl.create 64 }

let unknown = { base = Unknown; delta = 0 }

let instr_at t (p : Ir.pos) =
  if p.blk < 0 then None
  else begin
    let blk = t.func.blocks.(p.blk) in
    if p.idx < Array.length blk.instrs then Some blk.instrs.(p.idx) else None
  end

(* Resolve the value of [r] as seen just before [at]: when a unique
   definition reaches, chase it (recursively resolving its operands at
   the definition site).  [seen] cuts loop-carried self-definitions. *)
let rec resolve_reg t ~seen ~at r =
  match Hashtbl.find_opt t.memo (at, r) with
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
              | Some (Alloca (_, _)) -> { base = Alloca_site (site_of d); delta = 0 }
              | Some (Intrinsic { intr = Nv_alloc; _ }) ->
                  { base = Heap_site (site_of d); delta = 0 }
              | Some (Mov (_, op)) -> resolve_operand t ~seen ~at:d op
              | Some (Bin (_, Add, a, Imm k)) | Some (Bin (_, Add, Imm k, a)) ->
                  let e = resolve_operand t ~seen ~at:d a in
                  if e.base = Unknown then unknown
                  else { e with delta = e.delta + Int64.to_int k }
              | Some (Bin (_, Sub, a, Imm k)) ->
                  let e = resolve_operand t ~seen ~at:d a in
                  if e.base = Unknown then unknown
                  else { e with delta = e.delta - Int64.to_int k }
              | _ -> unknown)
        end
      in
      Hashtbl.replace t.memo (at, r) e;
      e

and resolve_operand t ~seen ~at = function
  | Ir.Reg r -> resolve_reg t ~seen ~at r
  | Ir.Imm i -> { base = Const i; delta = 0 }

let resolve_access t pos =
  match instr_at t pos with
  | Some (Load { space; base; off; _ }) | Some (Store { space; base; off; _ }) ->
      let e = resolve_operand t ~seen:[] ~at:pos base in
      let e = if e.base = Unknown then e else { e with delta = e.delta + off } in
      Some (space, e)
  | Some (Intrinsic { intr = Root_get | Root_set; _ }) ->
      (* Root slots live in the persistent header; model them as an
         unknown persistent access. *)
      Some (Persistent, unknown)
  | Some (Intrinsic { intr = Nv_alloc | Nv_free; _ }) -> Some (Persistent, unknown)
  | _ -> None

let base_distinct b1 b2 =
  (* Distinct allocation sites yield distinct objects; constants are
     absolute.  Parameters may equal anything except fresh allocations
     (which did not exist at entry and never flow back within a single
     resolved chain), handled conservatively: params only separate from
     sites and constants when the other side is a fresh allocation. *)
  match (b1, b2) with
  | Alloca_site a, Alloca_site b -> a <> b
  | Heap_site a, Heap_site b -> a <> b
  | Alloca_site _, Heap_site _ | Heap_site _, Alloca_site _ -> true
  | Const _, (Alloca_site _ | Heap_site _) | (Alloca_site _ | Heap_site _), Const _
    ->
      true
  | _ -> false

let may_alias t p q =
  match (resolve_access t p, resolve_access t q) with
  | None, _ | _, None -> invalid_arg "Alias.may_alias: not a memory operation"
  | Some (s1, e1), Some (s2, e2) ->
      if s1 <> s2 then false
      else if e1.base = Unknown || e2.base = Unknown then true
      else begin
        match (e1.base, e2.base) with
        | Const a, Const b ->
            Int64.add a (Int64.of_int e1.delta)
            = Int64.add b (Int64.of_int e2.delta)
        | _ ->
            if base_distinct e1.base e2.base then false
            else if e1.base = e2.base then e1.delta = e2.delta
            else true
      end
