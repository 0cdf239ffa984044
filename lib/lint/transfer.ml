open Ido_ir
open Ido_analysis
open Ido_runtime

type access = {
  apos : Ir.pos;
  aloc : Alias.expr;
  awrite : bool;
  alocks : Alias.expr list;
  aprotected : bool;
  apure : bool;
}

type result = {
  diags : Diag.t list;
  accesses : access list;
  order_edges : (Alias.expr * Alias.expr * Ir.pos) list;
}

(* ------------------------------------------------------------------ *)
(* Abstract state *)

type token = Lock of Alias.expr | Durable_region | Txn

type st = { toks : token list (* outermost first *); p : Plattice.t }

let compare_token a b =
  match (a, b) with
  | Lock x, Lock y -> Alias.compare x y
  | Lock _, _ -> -1
  | _, Lock _ -> 1
  | Durable_region, Durable_region -> 0
  | Durable_region, Txn -> -1
  | Txn, Durable_region -> 1
  | Txn, Txn -> 0

let unknown_lock = Lock { Alias.base = Alias.Unknown; delta = 0 }

(* Elementwise join truncated to the shorter stack; token disagreement
   degrades to an unknown lock (still counts as protection, no longer
   comparable).  Depth disagreement itself is reported separately. *)
let join_toks a b =
  let rec go a b =
    match (a, b) with
    | x :: xs, y :: ys ->
        (if compare_token x y = 0 then x else unknown_lock) :: go xs ys
    | _ -> []
  in
  go a b

let join_st a b = { toks = join_toks a.toks b.toks; p = Plattice.join a.p b.p }

let eq_st a b =
  List.compare compare_token a.toks b.toks = 0 && Plattice.equal a.p b.p

let init_st = { toks = []; p = Plattice.top }

let has_txn st = List.exists (function Txn -> true | _ -> false) st.toks
let has_durable st =
  List.exists (function Durable_region -> true | _ -> false) st.toks

(* The token stack without its innermost token satisfying [pred]. *)
let rec remove_innermost pred = function
  | [] -> None
  | x :: xs -> (
      match remove_innermost pred xs with
      | Some xs' -> Some (x :: xs')
      | None -> if pred x then Some xs else None)

let lock_depth st =
  List.length (List.filter (function Lock _ -> true | _ -> false) st.toks)

(* The stores a scheme's runtime takes responsibility for — these dirty
   the summarized data cell and (when the scheme logs per store) must
   be covered by a grant. *)
let protected_ctx (s : Scheme.props) st =
  match s.fase with
  | Scheme.Lock_inferred -> st.toks <> []
  | Scheme.Durable_only -> has_durable st
  | Scheme.Transaction -> has_txn st
  | Scheme.No_fase -> false

let store_dirties_data (s : Scheme.props) st (space : Ir.space) =
  protected_ctx s st
  &&
  match space with
  | Ir.Persistent -> true
  | Ir.Stack -> s.stack_in_pmem
  | Ir.Transient -> false

let store_needs_grant (s : Scheme.props) st space =
  s.grant <> None && store_dirties_data s st space

let pstate_str = Plattice.pstate_to_string

let need_str = function
  | Hook_model.Initiated -> "written back"
  | Hook_model.Fenced -> "fence-durable"

let req_str = function Hook_model.Data -> "FASE data" | Hook_model.Meta m -> "'" ^ m ^ "'"

let need_sat (need : Hook_model.need) (s : Plattice.pstate) =
  match need with
  | Hook_model.Initiated -> s <> Plattice.Dirty
  | Hook_model.Fenced -> s = Plattice.Durable

(* ------------------------------------------------------------------ *)

type ctx = {
  scheme : Scheme.t;
  props : Scheme.props;
  model : Ir.hook -> Hook_model.micro list;
  func : Ir.func;
  alias : Alias.t;
  capflow : Capflow.t;
  mutable diags : Diag.t list;
  mutable accesses : access list;
  mutable edges : (Alias.expr * Alias.expr * Ir.pos) list;
  mutable report : bool;
}

let diag c ?pos code fmt =
  Printf.ksprintf
    (fun msg ->
      if c.report then
        c.diags <- Diag.v ?pos ~func:c.func.Ir.name ~code msg :: c.diags)
    fmt

let req_state (p : Plattice.t) = function
  | Hook_model.Data -> p.Plattice.data
  | Hook_model.Meta m -> Plattice.get_meta p m

let run_micro c pos hook (st, pending) (m : Hook_model.micro) =
  let check_reqs needs requires ~describe =
    List.iter
      (fun r ->
        let s = req_state st.p r in
        if not (need_sat needs s) then describe r s)
      requires
  in
  match m with
  | Hook_model.Write cell -> ({ st with p = Plattice.write_meta st.p cell }, pending)
  | Hook_model.Write_data -> ({ st with p = Plattice.write_data st.p }, pending)
  | Hook_model.Writeback cell ->
      ({ st with p = Plattice.writeback_meta st.p cell }, pending)
  | Hook_model.Writeback_data ->
      ({ st with p = Plattice.writeback_data st.p }, pending)
  | Hook_model.Fence -> ({ st with p = Plattice.fence st.p }, pending)
  | Hook_model.Publish { target; needs; requires } ->
      check_reqs needs requires ~describe:(fun r s ->
          diag c ~pos "L301"
            "write-ahead violation in %s: '%s' published while %s is %s \
             (needs %s)"
            (Ir.hook_name hook) target (req_str r) (pstate_str s)
            (need_str needs));
      ({ st with p = Plattice.write_meta st.p target }, pending)
  | Hook_model.Check { needs; requires; code; what } ->
      check_reqs needs requires ~describe:(fun r s ->
          diag c ~pos code "%s: %s is %s at %s (needs %s)" what (req_str r)
            (pstate_str s)
            (Ir.hook_name hook) (need_str needs));
      (st, pending)
  | Hook_model.Grant_log -> (st, true)

let record_access c pos st ~loc ~awrite =
  match loc with
  | None -> ()
  | Some (l : Alias.expr) ->
      if c.report && l.Alias.base <> Alias.Unknown then begin
        let alocks =
          List.filter_map
            (function Lock e when Alias.is_stable e -> Some e | _ -> None)
            st.toks
        in
        let apure =
          List.for_all
            (function Lock e -> Alias.is_stable e | _ -> false)
            st.toks
        in
        c.accesses <-
          {
            apos = pos;
            aloc = l;
            awrite;
            alocks;
            aprotected = st.toks <> [];
            apure;
          }
          :: c.accesses
      end

let orphan c pos =
  diag c ~pos "L202"
    "orphaned %s: the log grant was not consumed by the guarded store"
    (match c.props.grant with
    | Some h -> Ir.hook_name h
    | None -> "log hook")

(* One instruction.  [pending] is the armed per-store log grant. *)
let exec_instr c pos (st, pending) (instr : Ir.instr) =
  let is_grant h = c.props.grant = Some h in
  (* A pending grant must be consumed by the very next instruction
     (the guarded store); anything else orphans it. *)
  let consume_for_store space =
    if store_needs_grant c.props st space then begin
      (* an uncovered store is excused when the cell's old value is
         provably captured already in this window, under a scheme
         whose log discipline makes the second capture redundant *)
      let captured () =
        c.props.grant_elidable
        &&
        match Alias.resolve_store_addr c.alias pos with
        | Some cell -> Alias.is_stable cell && Capflow.mem c.capflow pos cell
        | None -> false
      in
      if (not pending) && not (captured ()) then
        diag c ~pos "L201"
          "persistent store inside a FASE is not covered by a %s log hook"
          (match c.props.grant with
          | Some h -> Ir.hook_name h
          | None -> "");
      false
    end
    else begin
      if pending then orphan c pos;
      false
    end
  in
  match instr with
  | Ir.Lock op ->
      if pending then orphan c pos;
      let tok = Alias.resolve_operand c.alias ~at:pos op in
      if c.report && Alias.is_stable tok then
        List.iter
          (function
            | Lock held when Alias.is_stable held && not (Alias.equal held tok) ->
                c.edges <- (held, tok, pos) :: c.edges
            | _ -> ())
          st.toks;
      ({ st with toks = st.toks @ [ Lock tok ] }, false)
  | Ir.Unlock op ->
      if pending then orphan c pos;
      if lock_depth st = 0 then begin
        diag c ~pos "L102" "unlock with no lock held";
        (st, false)
      end
      else begin
        (* the single-fence contract: this thread's lock record must be
           durable before another thread can acquire the lock *)
        List.iter
          (fun cell ->
            let s = Plattice.get_meta st.p cell in
            if s <> Plattice.Durable then
              diag c ~pos "L303"
                "lock released while runtime cell '%s' is %s — another \
                 thread may acquire before this thread's record is durable"
                cell (pstate_str s))
          (Hook_model.unlock_durable c.scheme);
        let tok = Alias.resolve_operand c.alias ~at:pos op in
        (* release the matching lock; fall back to the innermost lock
           when symbolic resolution cannot match (unstable tokens) *)
        let matched =
          if Alias.is_stable tok then
            remove_innermost
              (function Lock e -> Alias.equal e tok | _ -> false)
              st.toks
          else None
        in
        let toks =
          match matched with
          | Some toks -> toks
          | None -> (
              match
                remove_innermost
                  (function
                    | Lock e ->
                        (not (Alias.is_stable e)) || not (Alias.is_stable tok)
                    | _ -> false)
                  st.toks
              with
              | Some toks -> toks
              | None ->
                  diag c ~pos "L102" "unlock of %s, which is not held"
                    (Alias.to_string tok);
                  st.toks)
        in
        ({ st with toks }, false)
      end
  | Ir.Durable_begin ->
      if pending then orphan c pos;
      ({ st with toks = st.toks @ [ Durable_region ] }, false)
  | Ir.Durable_end ->
      if pending then orphan c pos;
      let toks =
        match remove_innermost (( = ) Durable_region) st.toks with
        | Some toks -> toks
        | None ->
            diag c ~pos "L103" "durable_end without an open durable region";
            st.toks
      in
      ({ st with toks }, false)
  | Ir.Store { space; _ } ->
      let still_pending = consume_for_store space in
      record_access c pos st ~loc:(Alias.resolve_store_addr c.alias pos)
        ~awrite:true;
      let st =
        if store_dirties_data c.props st space then
          { st with p = Plattice.write_data st.p }
        else st
      in
      (st, still_pending)
  | Ir.Load { space; _ } ->
      if pending then orphan c pos;
      if space = Ir.Persistent then
        record_access c pos st ~loc:(Alias.resolve_store_addr c.alias pos)
          ~awrite:false;
      (st, false)
  | Ir.Hook h when not (Hook_model.placeable c.props h) ->
      if pending then orphan c pos;
      diag c ~pos "L204" "hook %s cannot appear under scheme %s"
        (Ir.hook_name h)
        (Scheme.name c.scheme);
      (st, false)
  | Ir.Hook h ->
      if pending then orphan c pos;
      (* structural bookkeeping first *)
      let st =
        match h with
        | Ir.Htxn_begin ->
            if has_txn st then
              diag c ~pos "L103" "transaction begun while one is open";
            { st with toks = st.toks @ [ Txn ] }
        | _ -> st
      in
      if is_grant h && not (protected_ctx c.props st) then
        diag c ~pos "L203" "%s outside its protected context (FASE/txn)"
          (Ir.hook_name h);
      let st, pending =
        List.fold_left
          (run_micro c pos h)
          (st, false)
          (c.model h)
      in
      (* a detached grant is not an orphan when it is a resolvable
         hoisted capture (Capflow consumes it at the loop's store);
         otherwise pending survives and the next instruction reports
         L202 as before *)
      let pending =
        if pending then begin
          let blk = c.func.Ir.blocks.(pos.Ir.blk) in
          let next_is_store =
            pos.Ir.idx + 1 < Array.length blk.Ir.instrs
            &&
            match blk.Ir.instrs.(pos.Ir.idx + 1) with
            | Ir.Store _ -> true
            | _ -> false
          in
          if next_is_store then true
          else
            match Capflow.classify c.capflow pos with
            | Capflow.Hoisted _ -> false
            | Capflow.Adjacent | Capflow.Orphan -> true
        end
        else pending
      in
      let st =
        match h with
        | Ir.Htxn_commit ->
            (match remove_innermost (( = ) Txn) st.toks with
            | Some toks -> { st with toks }
            | None ->
                diag c ~pos "L103" "commit without an open transaction";
                st)
        | _ -> st
      in
      (st, pending)
  | Ir.Call _ | Ir.Intrinsic _ | Ir.Alloca _ | Ir.Bin _ | Ir.Mov _ ->
      if pending then orphan c pos;
      (st, false)

let exec_block c b st0 =
  let blk = c.func.Ir.blocks.(b) in
  let n = Array.length blk.Ir.instrs in
  let stp = ref (st0, false) in
  for i = 0 to n - 1 do
    stp := exec_instr c { Ir.blk = b; idx = i } !stp blk.Ir.instrs.(i)
  done;
  let st, pending = !stp in
  let term_pos = { Ir.blk = b; idx = n } in
  if pending then orphan c term_pos;
  (match blk.Ir.term with
  | Ir.Ret _ when st.toks <> [] ->
      diag c ~pos:term_pos "L104"
        "return while protection is still held (%d lock(s)%s%s)"
        (lock_depth st)
        (if has_durable st then ", open durable region" else "")
        (if has_txn st then ", open transaction" else "")
  | _ -> ());
  st

(* ------------------------------------------------------------------ *)

let analyze ?variant scheme (func : Ir.func) =
  let alias = Alias.compute (Cfg.build func) in
  let c =
    {
      scheme;
      props = Scheme.props scheme;
      model = Hook_model.model ?fault:variant scheme;
      func;
      alias;
      capflow = Capflow.compute scheme alias func;
      diags = [];
      accesses = [];
      edges = [];
      report = false;
    }
  in
  let n = Array.length func.Ir.blocks in
  (* fixpoint, silent *)
  let ins =
    Dataflow.forward func ~entry:init_st ~transfer:(exec_block c) ~join:join_st
      ~equal:eq_st
  in
  (* reporting pass over the stabilized in-states *)
  c.report <- true;
  let outs = Array.make n None in
  for b = 0 to n - 1 do
    match ins.(b) with
    | None -> ()
    | Some st0 ->
        c.report <- false;
        outs.(b) <- Some (exec_block c b st0);
        c.report <- true
  done;
  (* join-consistency: reachable predecessors must agree on protection
     structure *)
  let preds = Array.make n [] in
  for b = 0 to n - 1 do
    if ins.(b) <> None then
      List.iter
        (fun s -> preds.(s) <- b :: preds.(s))
        (Ir.successors func.Ir.blocks.(b).Ir.term)
  done;
  for b = 0 to n - 1 do
    let pouts = List.filter_map (fun p -> outs.(p)) preds.(b) in
    match pouts with
    | first :: rest when ins.(b) <> None ->
        let pos = { Ir.blk = b; idx = 0 } in
        let depth0 = lock_depth first in
        if List.exists (fun s -> lock_depth s <> depth0) rest then
          diag c ~pos "L101"
            "inconsistent lock depth at join: predecessors reach this block \
             holding different numbers of locks";
        let struct0 = (has_durable first, has_txn first) in
        if
          List.exists (fun s -> (has_durable s, has_txn s) <> struct0) rest
        then
          diag c ~pos "L103"
            "inconsistent transaction/durable-region structure at join"
    | _ -> ()
  done;
  for b = 0 to n - 1 do
    match ins.(b) with None -> () | Some st0 -> ignore (exec_block c b st0)
  done;
  {
    diags = List.rev c.diags;
    accesses = List.rev c.accesses;
    order_edges = List.rev c.edges;
  }
