(* Prints the linter's hook models, recorded from the runtime protocols:
   one block per (scheme, hook) pair the instrumenter can place, then,
   for each seeded fault, the pairs whose model it changes.  The dune
   rule next to this file diffs the output against hook_models.expected,
   so a protocol change shows up as a changed micro-op list.  Exits 1
   when a fault changes no model. *)

open Ido_runtime
module H = Ido_lint.Hook_model

let label (hook : Ido_ir.Ir.hook) =
  match hook with
  | Ido_ir.Ir.Hregion rh -> if rh.at_release then "boundary at release" else "boundary"
  | Ido_ir.Ir.Hlock_release { outermost } ->
      if outermost then "lock_release outermost" else "lock_release inner"
  | h -> Ido_ir.Ir.hook_name h

let micro_to_string (m : H.micro) =
  let needs requires need =
    Printf.sprintf "(needs %s %s)"
      (String.concat "," (List.map (function H.Data -> "data" | H.Meta c -> c) requires))
      (match need with H.Initiated -> "written-back" | H.Fenced -> "fenced")
  in
  match m with
  | H.Write c -> "write " ^ c
  | Write_data -> "write data"
  | Writeback c -> "writeback " ^ c
  | Writeback_data -> "writeback data"
  | Fence -> "fence"
  | Publish { target; needs = n; requires } -> Printf.sprintf "publish %s %s" target (needs requires n)
  | Check { needs = n; requires; code; _ } -> Printf.sprintf "check %s %s" code (needs requires n)
  | Grant_log -> "grant"

let print_model heading ops =
  print_endline heading;
  List.iter (fun m -> print_endline ("  " ^ micro_to_string m)) ops

let placed scheme = List.filter (H.placeable (Scheme.props scheme)) H.hooks

let () =
  List.iter
    (fun scheme ->
      List.iter
        (fun h ->
          print_model (Printf.sprintf "%s %s:" (Scheme.name scheme) (label h)) (H.model scheme h))
        (placed scheme))
    Scheme.all;
  let inert =
    List.filter
      (fun fault ->
        let changed =
          List.concat_map
            (fun scheme ->
              List.filter_map
                (fun h ->
                  let ops = H.model ~fault scheme h in
                  if ops = H.model scheme h then None
                  else begin
                    print_model
                      (Printf.sprintf "fault %s, %s %s:" (Protocol.fault_name fault)
                         (Scheme.name scheme) (label h))
                      ops;
                    Some h
                  end)
                (placed scheme))
            Scheme.all
        in
        changed = [])
      Protocol.faults
  in
  List.iter
    (fun f -> Printf.eprintf "fault %s changes no hook model\n" (Protocol.fault_name f))
    inert;
  if inert <> [] then exit 1
