open Ido_ir
open Ido_analysis
open Ido_runtime

let strip (f : Ir.func) =
  let blocks =
    Array.map
      (fun (blk : Ir.block) ->
        {
          blk with
          Ir.instrs =
            Array.of_list
              (List.filter
                 (fun i -> not (Ir.is_hook i))
                 (Array.to_list blk.Ir.instrs));
        })
      f.Ir.blocks
  in
  { f with Ir.blocks }

let has_hooks (f : Ir.func) =
  Array.exists
    (fun (blk : Ir.block) -> Array.exists Ir.is_hook blk.Ir.instrs)
    f.Ir.blocks

(* Hooks owned by other passes: per-store grants by Transfer, region
   boundaries by the plan comparison below. *)
let in_sequence_compare = function
  | Ir.Hjustdo_store | Ir.Hundo_store | Ir.Hredo_store | Ir.Hpage_log
  | Ir.Hregion _ ->
      false
  | _ -> true

let code_for = function
  | Ir.Hfase_enter | Ir.Hfase_exit -> "L105"
  | _ -> "L106"

(* Expected pre/post hooks of the stripped instruction at [pos],
   restating instrument.mli's placement contract from the scheme's
   properties.  Only the FASE kinds {!check} compares reach here. *)
let expected (s : Scheme.props) fase (pos : Ir.pos) (instr : Ir.instr) =
  let when_ b h = if b then [ h ] else [] in
  let locks = s.fase = Scheme.Lock_inferred in
  match instr with
  | Ir.Lock _ when locks ->
      ( [],
        when_ (Fase.outermost_acquire fase pos) Ir.Hfase_enter
        @ when_ s.lock_records Ir.Hlock_acquired )
  | Ir.Unlock _ when locks ->
      let outermost = Fase.outermost_release fase pos in
      let inside = Fase.in_fase fase pos in
      let commit =
        match s.commit with
        | Scheme.No_commit -> false
        | Scheme.At_fase_end -> outermost
        | Scheme.At_every_release -> inside
      in
      ( when_ commit Ir.Hdurable_commit
        @ when_ (inside && s.lock_records) (Ir.Hlock_release { outermost }),
        when_ outermost Ir.Hfase_exit )
  | Ir.Durable_begin -> ([], [ Ir.Hfase_enter ])
  | Ir.Durable_end ->
      (when_ (s.commit <> Scheme.No_commit) Ir.Hdurable_commit, [ Ir.Hfase_exit ])
  | _ -> ([], [])

type item = Hk of Ir.hook | Instr

let item_str = function
  | Hk h -> "hook " ^ Ir.hook_name h
  | Instr -> "the program instruction"

(* ------------------------------------------------------------------ *)

let compare_sequences scheme fase (f : Ir.func) diags =
  let props = Scheme.props scheme in
  let df = Dirtyflow.compute scheme f in
  Array.iteri
    (fun b (blk : Ir.block) ->
      (* actual: hooks (filtered) and real instructions, with their
         instrumented positions *)
      let actual = ref [] in
      Array.iteri
        (fun i instr ->
          let pos = { Ir.blk = b; idx = i } in
          match instr with
          | Ir.Hook h -> if in_sequence_compare h then actual := (Hk h, pos) :: !actual
          | _ -> actual := (Instr, pos) :: !actual)
        blk.Ir.instrs;
      let actual = List.rev !actual in
      (* expected: from the stripped block *)
      let expected_items = ref [] in
      let sidx = ref 0 in
      Array.iter
        (fun instr ->
          if not (Ir.is_hook instr) then begin
            let spos = { Ir.blk = b; idx = !sidx } in
            incr sidx;
            let pre, post = expected props fase spos instr in
            List.iter
              (fun h ->
                if in_sequence_compare h then
                  expected_items := Hk h :: !expected_items)
              pre;
            expected_items := Instr :: !expected_items;
            List.iter
              (fun h ->
                if in_sequence_compare h then
                  expected_items := Hk h :: !expected_items)
              post
          end)
        blk.Ir.instrs;
      let expected_items = List.rev !expected_items in
      (* first divergence wins; later ones are usually knock-on *)
      let rec walk exp act =
        match (exp, act) with
        | [], [] -> ()
        | ( Hk (Ir.Hlock_release { outermost = want }) :: _,
            (Hk (Ir.Hlock_release { outermost = got }), pos) :: _ )
          when want <> got ->
            diags :=
              Diag.v ~pos ~func:f.Ir.name ~code:"L107"
                (Printf.sprintf
                   "lock_release hook marks the release as %s, but the FASE \
                    structure says it is %s"
                   (if got then "outermost" else "inner")
                   (if want then "outermost" else "inner"))
              :: !diags
        | e :: exp', a :: act' when e = fst a -> walk exp' act'
        (* a prescribed durable-commit may be elided (O101) where the
           tracked-line set is provably clean on every incoming path —
           there is nothing for the commit to flush *)
        | Hk Ir.Hdurable_commit :: exp', act
          when not
                 (Dirtyflow.dirty_at df
                    (match act with
                    | (_, pos) :: _ -> pos
                    | [] ->
                        { Ir.blk = b; idx = Array.length blk.Ir.instrs })) ->
            walk exp' act
        | (Hk h) :: _, act ->
            let pos = match act with (_, p) :: _ -> Some p | [] -> None in
            diags :=
              Diag.v ?pos ~func:f.Ir.name ~code:(code_for h)
                (Printf.sprintf
                   "missing %s hook required by the %s instrumentation \
                    contract (block %d)"
                   (Ir.hook_name h) (Scheme.name scheme) b)
              :: !diags
        | _, (Hk h, pos) :: _ ->
            diags :=
              Diag.v ~pos ~func:f.Ir.name ~code:(code_for h)
                (Printf.sprintf "%s hook not prescribed here by the %s \
                                 instrumentation contract"
                   (Ir.hook_name h) (Scheme.name scheme))
              :: !diags
        | Instr :: _, ((Instr, _) :: _ | []) ->
            (* lengths diverged on program instructions: impossible if
               strip(f) was used to build the expectation *)
            ()
        | [], (it, pos) :: _ ->
            diags :=
              Diag.v ~pos ~func:f.Ir.name ~code:"L105"
                (Printf.sprintf "unexpected %s at end of block" (item_str it))
              :: !diags
      in
      walk expected_items actual)
    f.Ir.blocks

(* ------------------------------------------------------------------ *)
(* iDO region plan conformance *)

module Pmap = Map.Make (struct
  type t = Ir.pos

  let compare = Stdlib.compare
end)

let pos_str (p : Ir.pos) = Printf.sprintf "(%d,%d)" p.Ir.blk p.Ir.idx

let compare_plan (f : Ir.func) cfg fase diags =
  let plan =
    Regions.compute cfg fase (Liveness.compute cfg) (Alias.compute cfg)
  in
  let plan_map =
    List.fold_left
      (fun m (c : Regions.cut) -> Pmap.add c.pos c m)
      Pmap.empty plan.Regions.cuts
  in
  (* region hooks keyed by their position in the stripped function *)
  let hook_map = ref Pmap.empty in
  Array.iteri
    (fun b (blk : Ir.block) ->
      let sidx = ref 0 in
      Array.iteri
        (fun i instr ->
          match instr with
          | Ir.Hook (Ir.Hregion rh) ->
              let spos = { Ir.blk = b; idx = !sidx } in
              let ipos = { Ir.blk = b; idx = i } in
              if Pmap.mem spos !hook_map then
                diags :=
                  Diag.v ~pos:ipos ~func:f.Ir.name ~code:"L403"
                    (Printf.sprintf
                       "duplicate region boundary hook at cut point %s"
                       (pos_str spos))
                  :: !diags
              else hook_map := Pmap.add spos (ipos, rh) !hook_map
          | instr when not (Ir.is_hook instr) -> incr sidx
          | _ -> ())
        blk.Ir.instrs)
    f.Ir.blocks;
  let hook_map = !hook_map in
  Pmap.iter
    (fun spos (c : Regions.cut) ->
      match Pmap.find_opt spos hook_map with
      | None ->
          diags :=
            Diag.v ~func:f.Ir.name ~code:"L401"
              (Printf.sprintf
                 "region plan cuts at %s but no boundary hook is present — \
                  a WAR pair or lock boundary is left inside one region"
                 (pos_str spos))
            :: !diags
      | Some (ipos, rh) ->
          if c.Regions.required && rh.Ir.skippable then
            diags :=
              Diag.v ~pos:ipos ~func:f.Ir.name ~code:"L402"
                (Printf.sprintf
                   "required cut at %s is marked elidable: skipping it can \
                    close a region with an unseparated WAR pair"
                   (pos_str spos))
              :: !diags;
          if rh.Ir.at_release <> c.Regions.at_release then
            diags :=
              Diag.v ~pos:ipos ~func:f.Ir.name ~code:"L404"
                (Printf.sprintf
                   "boundary at %s %s: the fence may be deferred only onto \
                    an immediately following release record"
                   (pos_str spos)
                   (if rh.Ir.at_release then
                      "defers its fence but is not at a release"
                    else "is at a release but does not defer its fence"))
              :: !diags;
          if rh.Ir.region_id <> c.Regions.id then
            diags :=
              Diag.v ~pos:ipos ~func:f.Ir.name ~code:"L404"
                (Printf.sprintf
                   "boundary at %s carries region id %d, plan says %d — \
                    recovery would restore the wrong register image"
                   (pos_str spos) rh.Ir.region_id c.Regions.id)
              :: !diags;
          let sorted = List.sort_uniq Stdlib.compare in
          if
            sorted rh.Ir.live_in <> sorted c.Regions.live_in
            || sorted rh.Ir.out_regs <> sorted c.Regions.out_regs
          then
            diags :=
              Diag.v ~pos:ipos ~func:f.Ir.name ~code:"L404"
                (Printf.sprintf
                   "boundary at %s logs a different register set than the \
                    plan's live-in/OutputSet"
                   (pos_str spos))
              :: !diags)
    plan_map;
  Pmap.iter
    (fun spos ((ipos : Ir.pos), _) ->
      if not (Pmap.mem spos plan_map) then
        diags :=
          Diag.v ~pos:ipos ~func:f.Ir.name ~code:"L403"
            (Printf.sprintf "region boundary hook at %s where the plan has \
                             no cut" (pos_str spos))
          :: !diags)
    hook_map

(* ------------------------------------------------------------------ *)

let check scheme (f : Ir.func) =
  let props = Scheme.props scheme in
  match props.fase with
  | Scheme.Transaction | Scheme.No_fase -> []
  | Scheme.Lock_inferred | Scheme.Durable_only ->
      let diags = ref [] in
      let cfg = Cfg.build (strip f) in
      (match Fase.compute cfg with
      | Error msg ->
          diags :=
            [ Diag.v ~func:f.Ir.name ~code:"V113" ("FASE structure: " ^ msg) ]
      | Ok fase ->
          if not (Fase.has_fase fase) then begin
            if has_hooks f then
              diags :=
                [
                  Diag.v ~func:f.Ir.name ~code:"L105"
                    "function has no FASE yet carries instrumentation hooks";
                ]
          end
          else if
            (not (has_hooks f))
            && Dirtyflow.write_free scheme f
          then
            (* write-free FASE with every hook elided (O102): nothing
               in it needs recovery, so the bare lock structure is the
               whole contract.  All-or-nothing — a partially stripped
               function still falls through to the sequence compare. *)
            ()
          else begin
            compare_sequences scheme fase f diags;
            if props.region_cuts then compare_plan f cfg fase diags
          end);
      List.rev !diags
