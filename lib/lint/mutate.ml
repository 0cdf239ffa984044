open Ido_ir
open Ido_runtime

type stage = Before_instrument | After_instrument

type t = {
  name : string;
  scheme : Scheme.t;
  workload : string;
  expect : string;
  stage : stage;
  variant : Protocol.fault option;
  transform : Ir.program -> Ir.program;
}

(* ------------------------------------------------------------------ *)
(* Pure program surgery.  All helpers act on the first match in
   function-list order, so mutants are deterministic. *)

let map_block fn (blk : Ir.block) =
  { blk with Ir.instrs = Array.of_list (fn (Array.to_list blk.Ir.instrs)) }

let map_program fn (p : Ir.program) =
  { Ir.funcs = List.map (fun (n, f) -> (n, fn f)) p.Ir.funcs }

(* Apply [edit] (instr -> instr list option) to the [n]-th instruction
   it accepts, program-wide, in function/block/instruction order. *)
let edit_nth n edit (p : Ir.program) =
  let seen = ref 0 in
  let hit = ref false in
  map_program
    (fun f ->
      {
        f with
        Ir.blocks =
          Array.map
            (map_block
               (List.concat_map (fun i ->
                    if !hit then [ i ]
                    else
                      match edit i with
                      | Some repl ->
                          if !seen = n then begin
                            hit := true;
                            repl
                          end
                          else begin
                            incr seen;
                            [ i ]
                          end
                      | None -> [ i ])))
            f.Ir.blocks;
      })
    p

let edit_first edit = edit_nth 0 edit

let delete_first pred =
  edit_first (fun i -> if pred i then Some [] else None)

let duplicate_first pred =
  edit_first (fun i -> if pred i then Some [ i; i ] else None)

let is_hook h = function Ir.Hook h' -> h' = h | _ -> false

(* Mark the first required (non-elidable) region cut as elidable. *)
let elide_required_cut =
  edit_first (function
    | Ir.Hook (Ir.Hregion rh) when not rh.Ir.skippable ->
        Some [ Ir.Hook (Ir.Hregion { rh with Ir.skippable = true }) ]
    | _ -> None)

let delete_required_cut =
  delete_first (function
    | Ir.Hook (Ir.Hregion rh) -> not rh.Ir.skippable
    | _ -> false)

(* Hoist a copy of a critical section's store above its lock: in the
   first function that takes a lock, find a later persistent store
   whose base register is a function parameter and replay it (with a
   distinguishable value) just before the lock — the classic
   "forgot the lock on the fast path" race. *)
let hoist_store_above_lock (p : Ir.program) =
  let done_ = ref false in
  map_program
    (fun f ->
      if !done_ then f
      else begin
        let lock_at = ref None in
        Array.iteri
          (fun b (blk : Ir.block) ->
            if !lock_at = None then
              Array.iteri
                (fun i instr ->
                  match instr with
                  | Ir.Lock _ when !lock_at = None -> lock_at := Some (b, i)
                  | _ -> ())
                blk.Ir.instrs)
          f.Ir.blocks;
        match !lock_at with
        | None -> f
        | Some (lb, li) ->
            let target = ref None in
            Array.iteri
              (fun b (blk : Ir.block) ->
                if b >= lb && !target = None then
                  Array.iteri
                    (fun i instr ->
                      if (b > lb || i > li) && !target = None then
                        match instr with
                        | Ir.Store
                            { space = Ir.Persistent; base = Ir.Reg r; off; _ }
                          when List.mem r f.Ir.params ->
                            target := Some (r, off)
                        | _ -> ())
                    blk.Ir.instrs)
              f.Ir.blocks;
            (match !target with
            | None -> f
            | Some (r, off) ->
                done_ := true;
                let hoisted =
                  Ir.Store
                    {
                      space = Ir.Persistent;
                      base = Ir.Reg r;
                      off;
                      src = Ir.Imm 7777L;
                    }
                in
                let blocks =
                  Array.mapi
                    (fun b blk ->
                      if b <> lb then blk
                      else
                        map_block
                          (fun instrs ->
                            List.concat
                              (List.mapi
                                 (fun i instr ->
                                   if i = li then [ hoisted; instr ]
                                   else [ instr ])
                                 instrs))
                          blk)
                    f.Ir.blocks
                in
                { f with Ir.blocks })
      end)
    p

(* Strip every hook from the first function that both writes
   persistent memory and carries hooks — the write-free FASE elision
   (O102) fired on a function that is not write-free. *)
let strip_hooks_in_storing_func (p : Ir.program) =
  let done_ = ref false in
  map_program
    (fun f ->
      let has pred =
        Array.exists
          (fun (blk : Ir.block) -> Array.exists pred blk.Ir.instrs)
          f.Ir.blocks
      in
      let stores = function
        | Ir.Store { space = Ir.Persistent; _ } -> true
        | _ -> false
      and hook = function Ir.Hook _ -> true | _ -> false in
      if !done_ || not (has stores && has hook) then f
      else begin
        done_ := true;
        {
          f with
          Ir.blocks =
            Array.map
              (map_block
                 (List.filter (function Ir.Hook _ -> false | _ -> true)))
              f.Ir.blocks;
        }
      end)
    p

(* Move the first [pred] instruction after its immediate successor:
   a capture grant detached from the store it was emitted for — the
   loop-hoisting rewrite (O104) moved a grant whose consumption it
   could not actually prove. *)
let detach_first pred (p : Ir.program) =
  let done_ = ref false in
  map_program
    (fun f ->
      {
        f with
        Ir.blocks =
          Array.map
            (map_block (fun instrs ->
                 let rec go = function
                   | a :: b :: rest when (not !done_) && pred a ->
                       done_ := true;
                       b :: a :: rest
                   | a :: rest -> a :: go rest
                   | [] -> []
                 in
                 go instrs))
            f.Ir.blocks;
      })
    p

let id p = p

(* ------------------------------------------------------------------ *)

(* An instrumentation or source mutant: no protocol fault. *)
let mutant name scheme workload expect ?(stage = After_instrument) transform =
  { name; scheme; workload; expect; stage; variant = None; transform }

let corpus =
  [
    (* -- per-store log coverage (L201) -- *)
    (* delete one justdo_store hook: its store is logged on no path *)
    mutant "drop-justdo-log" Scheme.Justdo "queue" "L201"
      (delete_first (is_hook Ir.Hjustdo_store));
    (* delete one undo_store hook: the old value is never logged *)
    mutant "drop-undo-log" Scheme.Atlas "queue" "L201"
      (delete_first (is_hook Ir.Hundo_store));
    (* delete one redo_store hook inside a transaction *)
    mutant "drop-redo-log" Scheme.Mnemosyne "queue" "L201"
      (delete_first (is_hook Ir.Hredo_store));
    (* delete one page_log hook: the page is modified uncopied *)
    mutant "drop-page-log" Scheme.Nvthreads "queue" "L201"
      (delete_first (is_hook Ir.Hpage_log));
    (* delete one undo_store hook in a durable region *)
    mutant "drop-nvml-log" Scheme.Nvml "objstore" "L201"
      (delete_first (is_hook Ir.Hundo_store));
    (* -- hook structure (L105/L106/L202) -- *)
    (* delete one fase_enter hook *)
    mutant "drop-fase-enter" Scheme.Justdo "queue" "L105"
      (delete_first (is_hook Ir.Hfase_enter));
    (* delete one lock_acquired record hook *)
    mutant "drop-lock-record" Scheme.Ido "mlog" "L106"
      (delete_first (is_hook Ir.Hlock_acquired));
    (* duplicate a justdo_store grant: the first is never consumed *)
    mutant "orphan-log-hook" Scheme.Justdo "queue" "L202"
      (duplicate_first (is_hook Ir.Hjustdo_store));
    (* -- region plan conformance (L401/L402) -- *)
    (* delete a required region boundary: a WAR pair shares a region *)
    mutant "drop-region-cut" Scheme.Ido "mlog" "L401" delete_required_cut;
    (* mark a required (WAR-separating) cut elidable *)
    mutant "elide-required-cut" Scheme.Ido "mlog" "L402" elide_required_cut;
    (* -- locking discipline (L501) -- *)
    (* hoist a critical-section store above its lock *)
    mutant "unlocked-store" Scheme.Justdo "mlog" "L501" ~stage:Before_instrument
      hoist_store_above_lock;
    (* -- over-optimization (the Ido_opt rewrites fired past their
          guards; the lint obligation must catch each) -- *)
    (* O101 over-fires: delete a durable commit whose lines are dirty *)
    mutant "over-opt-flush-elim" Scheme.Atlas "queue" "L106"
      (delete_first (is_hook Ir.Hdurable_commit));
    (* O102 over-fires: strip every hook from a function that writes
       persistent memory *)
    mutant "over-opt-fase-elide" Scheme.Justdo "queue" "L201"
      strip_hooks_in_storing_func;
    (* O104 over-fires: detach an undo capture grant from its store *)
    mutant "over-opt-hoist" Scheme.Atlas "queue" "L202"
      (detach_first (is_hook Ir.Hundo_store));
  ]
  (* -- runtime protocol faults (L301/L303) -- *)
  @ List.map
      (fun (f, scheme, workload, expect) ->
        { (mutant (Protocol.fault_name f) scheme workload expect id) with variant = Some f })
      [
        (* the PR 1 seeded bugs, then the same class in iDO and Mnemosyne *)
        (Protocol.Early_publish_justdo, Scheme.Justdo, "queue", "L301");
        (Protocol.Unfenced_undo_append, Scheme.Atlas, "queue", "L301");
        (Protocol.Reorder_region_writeback, Scheme.Ido, "mlog", "L301");
        (Protocol.Drop_release_fence, Scheme.Ido, "mlog", "L303");
        (Protocol.Drop_commit_fence, Scheme.Mnemosyne, "queue", "L301");
      ]

let find name = List.find_opt (fun m -> m.name = name) corpus

(* ------------------------------------------------------------------ *)
(* First-class instrumentation-level edits.

   The hand-written corpus above targets one named hook per mutant;
   the fuzzer instead enumerates and randomises positions, so its
   mutation operators are indexed: "delete the k-th hook", "elide the
   k-th required cut".  Representing them as data (rather than
   closures) makes a fuzzer finding serialisable — and [ingest]
   turns a serialised finding back into a corpus entry, which is how
   fuzzer survivors feed this module. *)

type edit =
  | Delete_hook of int  (** delete the k-th hook instruction *)
  | Dup_hook of int  (** duplicate the k-th hook instruction *)
  | Elide_cut of int  (** mark the k-th required region cut skippable *)
  | Drop_cut of int  (** delete the k-th required region cut *)
  | Hoist_store  (** replay a critical-section store above its lock *)

let count_matching pred (p : Ir.program) =
  List.fold_left
    (fun acc (_, f) ->
      Array.fold_left
        (fun acc (blk : Ir.block) ->
          Array.fold_left
            (fun acc i -> if pred i then acc + 1 else acc)
            acc blk.Ir.instrs)
        acc f.Ir.blocks)
    0 p.Ir.funcs

let hook_count = count_matching (function Ir.Hook _ -> true | _ -> false)

let is_required_cut = function
  | Ir.Hook (Ir.Hregion rh) -> not rh.Ir.skippable
  | _ -> false

let cut_count = count_matching is_required_cut

let apply_edit edit p =
  match edit with
  | Delete_hook k ->
      edit_nth k (function Ir.Hook _ -> Some [] | _ -> None) p
  | Dup_hook k ->
      edit_nth k (function Ir.Hook _ as i -> Some [ i; i ] | _ -> None) p
  | Elide_cut k ->
      edit_nth k
        (function
          | Ir.Hook (Ir.Hregion rh) when not rh.Ir.skippable ->
              Some [ Ir.Hook (Ir.Hregion { rh with Ir.skippable = true }) ]
          | _ -> None)
        p
  | Drop_cut k ->
      edit_nth k (fun i -> if is_required_cut i then Some [] else None) p
  | Hoist_store -> hoist_store_above_lock p

let edit_stage = function
  | Hoist_store -> Before_instrument
  | Delete_hook _ | Dup_hook _ | Elide_cut _ | Drop_cut _ -> After_instrument

let edit_to_string = function
  | Delete_hook k -> Printf.sprintf "del-hook:%d" k
  | Dup_hook k -> Printf.sprintf "dup-hook:%d" k
  | Elide_cut k -> Printf.sprintf "elide-cut:%d" k
  | Drop_cut k -> Printf.sprintf "drop-cut:%d" k
  | Hoist_store -> "hoist-store"

let edit_of_string s =
  let indexed prefix mk =
    let pn = String.length prefix in
    if
      String.length s > pn
      && String.sub s 0 pn = prefix
      && String.for_all (fun c -> c >= '0' && c <= '9')
           (String.sub s pn (String.length s - pn))
    then Some (mk (int_of_string (String.sub s pn (String.length s - pn))))
    else None
  in
  if s = "hoist-store" then Some Hoist_store
  else
    List.find_map
      (fun (p, mk) -> indexed p mk)
      [
        ("del-hook:", fun k -> Delete_hook k);
        ("dup-hook:", fun k -> Dup_hook k);
        ("elide-cut:", fun k -> Elide_cut k);
        ("drop-cut:", fun k -> Drop_cut k);
      ]

let ingest ~name ~scheme ~workload ~expect ?variant ~edits () =
  let stage =
    match List.sort_uniq compare (List.map edit_stage edits) with
    | [] -> After_instrument
    | [ s ] -> s
    | _ -> invalid_arg "Mutate.ingest: edits span both stages"
  in
  {
    name;
    scheme;
    workload;
    expect;
    stage;
    variant;
    transform = (fun p -> List.fold_left (fun p e -> apply_edit e p) p edits);
  }
