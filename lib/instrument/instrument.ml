open Ido_ir
open Ido_analysis
open Ido_runtime

let plan cfg fase =
  Regions.compute cfg fase (Liveness.compute cfg) (Alias.compute cfg)

let region_plan (f : Ir.func) =
  let cfg = Cfg.build f in
  plan cfg (Fase.compute_exn cfg)

(* The iDO boundary hook of every cut of the region plan, by position. *)
let region_cuts cfg fase =
  let cuts = Hashtbl.create 32 in
  List.iter
    (fun (c : Regions.cut) ->
      Hashtbl.replace cuts c.pos
        (Ir.Hook
           (Ir.Hregion
              {
                region_id = c.id;
                live_in = c.live_in;
                out_regs = c.out_regs;
                skippable = not c.required;
                at_release = c.at_release;
              })))
    (plan cfg fase).cuts;
  fun pos -> match Hashtbl.find_opt cuts pos with Some hk -> [ hk ] | None -> []

(* Rebuild every block, emitting for each instruction slot i:
     (cut hook at i)  (pre-hooks of instr i)  (instr i)  (post-hooks)
   where [site] gives the pre-hooks, an optional replacement of the
   instruction and the post-hooks.  The slot at index = #instrs (before
   the terminator) can carry a cut only. *)
let rewrite (f : Ir.func) ~cut_at ~site =
  let blocks =
    Array.mapi
      (fun b (blk : Ir.block) ->
        let out = ref [] in
        let emit i = out := i :: !out in
        let n = Array.length blk.instrs in
        for i = 0 to n - 1 do
          let pos = { Ir.blk = b; idx = i } in
          let instr = blk.instrs.(i) in
          let pre, replace, post = site pos instr in
          List.iter emit (cut_at pos);
          List.iter emit pre;
          (match replace with
          | Some instrs -> List.iter emit instrs
          | None -> emit instr);
          List.iter emit post
        done;
        List.iter emit (cut_at { Ir.blk = b; idx = n });
        { blk with instrs = Array.of_list (List.rev !out) })
      f.blocks
  in
  { f with blocks }

let instrument_func scheme (f : Ir.func) =
  let cfg = Cfg.build f in
  let fase = Fase.compute_exn cfg in
  let s = Scheme.props scheme in
  if s.fase = Scheme.No_fase || not (Fase.has_fase fase) then f
  else begin
    let h x = Ir.Hook x in
    let hk when_ x = if when_ then [ h x ] else [] in
    let txn = s.fase = Scheme.Transaction in
    let locks = s.fase = Scheme.Lock_inferred in
    let grant_scope =
      if s.fase = Scheme.Durable_only then Fase.durable_before fase
      else Fase.in_fase fase
    in
    let grant pos = function
      | Ir.Store { space = Ir.Persistent; _ } -> grant_scope pos
      | Ir.Store { space = Ir.Stack; _ } -> s.stack_in_pmem && grant_scope pos
      | _ -> false
    in
    let site pos (instr : Ir.instr) =
      match instr with
      | Ir.Lock _ when txn ->
          ([], Some (hk (Fase.outermost_acquire fase pos) Ir.Htxn_begin), [])
      | Ir.Lock _ when locks ->
          (* Under iDO the following cut's fence persists the FASE
             bookkeeping and the record, so an acquire adds no fence of
             its own — the benign steal window of Sec. III-B. *)
          ( [],
            None,
            hk (Fase.outermost_acquire fase pos) Ir.Hfase_enter
            @ hk s.lock_records Ir.Hlock_acquired )
      | Ir.Unlock _ when txn && Fase.in_fase fase pos ->
          ([], Some (hk (Fase.outermost_release fase pos) Ir.Htxn_commit), [])
      | Ir.Unlock _ when locks && Fase.in_fase fase pos ->
          (* The record clear persists before the unlock, so no two
             threads' lock records can ever claim the same lock. *)
          let outermost = Fase.outermost_release fase pos in
          let commit =
            match s.commit with
            | Scheme.No_commit -> false
            | Scheme.At_fase_end -> outermost
            | Scheme.At_every_release -> true
          in
          ( hk commit Ir.Hdurable_commit
            @ hk s.lock_records (Ir.Hlock_release { outermost }),
            None,
            hk outermost Ir.Hfase_exit )
      | Ir.Durable_begin when txn -> ([], Some [ h Ir.Htxn_begin ], [])
      | Ir.Durable_begin -> ([], None, [ h Ir.Hfase_enter ])
      | Ir.Durable_end when txn -> ([], Some [ h Ir.Htxn_commit ], [])
      | Ir.Durable_end ->
          ( hk (s.commit <> Scheme.No_commit) Ir.Hdurable_commit,
            None,
            [ h Ir.Hfase_exit ] )
      | _ -> (
          match s.grant with
          | Some g when grant pos instr -> ([ h g ], None, [])
          | _ -> ([], None, []))
    in
    let cut_at = if s.region_cuts then region_cuts cfg fase else fun _ -> [] in
    rewrite f ~cut_at ~site
  end

let instrument ?(lint = false) ?(opt = false) scheme (p : Ir.program) =
  let p' =
    { Ir.funcs = List.map (fun (name, f) -> (name, instrument_func scheme f)) p.funcs }
  in
  let p' = if opt then fst (Ido_opt.Opt.optimize scheme p') else p' in
  if lint then begin
    match Ido_lint.Lint.lint_program scheme p' with
    | [] -> ()
    | diags ->
        failwith
          (Printf.sprintf "instrumentation lint (%s): %s" (Scheme.name scheme)
             (String.concat "; "
                (List.map Ido_analysis.Diag.render diags)))
  end;
  p'
