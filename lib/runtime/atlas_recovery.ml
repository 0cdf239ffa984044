open Ido_nvm

type stats = {
  nodes : int;
  records_scanned : int;
  fases_found : int;
  fases_rolled_back : int;
  writes_undone : int;
  cost : Ido_util.Timebase.ns;
}

type fase = {
  mutable complete : bool;
  mutable writes : (int * int64 * int) list;  (* addr, old, seq; newest first *)
  mutable acquires : (int64 * int) list;  (* lock holder, seq *)
  mutable releases : (int64 * int) list;
}

let parse_fases records =
  let fases = ref [] in
  let current = ref None in
  List.iter
    (fun (r : Undo_log.record) ->
      match r.tag with
      | Undo_log.Fase_begin ->
          let f = { complete = false; writes = []; acquires = []; releases = [] } in
          current := Some f;
          fases := f :: !fases
      | Undo_log.Fase_end -> (
          match !current with
          | Some f ->
              f.complete <- true;
              current := None
          | None -> ())
      | Undo_log.Write -> (
          match !current with
          | Some f -> f.writes <- (Int64.to_int r.a, r.b, r.seq) :: f.writes
          | None -> ())
      | Undo_log.Acquire -> (
          match !current with
          | Some f -> f.acquires <- (r.a, r.seq) :: f.acquires
          | None -> ())
      | Undo_log.Release -> (
          match !current with
          | Some f -> f.releases <- (r.a, r.seq) :: f.releases
          | None -> ()))
    records;
  List.rev !fases

(* Lock words are compared exactly, as int64s; the hash is a cheap
   multiplicative one, with no call into the polymorphic hash. *)
module Lock_tbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash l = (Int64.to_int l * 0x2545F4914F6CDD1D) lsr 17
end)

(* The least set containing every interrupted FASE and closed under
   G rolled back, G released l at s', F acquired l at s >= s'
   ==> F rolled back.  Each lock's acquires are sorted newest first,
   and a worklist expands each rolled-back FASE once.  A release at s'
   marks its lock's acquires from the newest down to s' and drops them
   from the index: any later release of that lock reaches the same
   marked prefix, so every acquire record is visited at most once. *)
let rollback_set fases =
  let pending = Lock_tbl.create 16 in
  Array.iteri
    (fun fi f ->
      List.iter
        (fun (lock, s) ->
          match Lock_tbl.find pending lock with
          | l -> l := (s, fi) :: !l
          | exception Not_found -> Lock_tbl.add pending lock (ref [ (s, fi) ]))
        f.acquires)
    fases;
  Lock_tbl.iter
    (fun _ l -> l := List.sort (fun (s1, _) (s2, _) -> compare s2 s1) !l)
    pending;
  let rolled = Array.map (fun f -> not f.complete) fases in
  let work = Stack.create () in
  Array.iteri (fun i r -> if r then Stack.push i work) rolled;
  while not (Stack.is_empty work) do
    List.iter
      (fun (lock, s') ->
        let rec mark = function
          | (s, fi) :: rest when s >= s' ->
              if not rolled.(fi) then begin
                rolled.(fi) <- true;
                Stack.push fi work
              end;
              mark rest
          | rest -> rest
        in
        match Lock_tbl.find_opt pending lock with
        | Some l -> l := mark !l
        | None -> ())
      fases.(Stack.pop work).releases
  done;
  rolled

let recover w region =
  let pm = Pwriter.pmem w in
  let nodes = ref [] in
  Lognode.iter pm region (fun a ->
      if Lognode.kind pm a = Lognode.kind_atlas then nodes := a :: !nodes);
  let all_fases = ref [] in
  let records_scanned = ref 0 in
  List.iter
    (fun node ->
      let records = Undo_log.records pm node in
      (* Charge a scan cost per record: one cache-line read each. *)
      Pwriter.add_cost w
        (List.length records * (Pwriter.latency w).Latency.mem * 4);
      records_scanned := !records_scanned + List.length records;
      all_fases := parse_fases records @ !all_fases)
    !nodes;
  let fases = Array.of_list !all_fases in
  let n = Array.length fases in
  let rolled = rollback_set fases in
  (* Undo in reverse global order. *)
  let writes = ref [] in
  Array.iteri (fun i f -> if rolled.(i) then writes := f.writes @ !writes) fases;
  let writes =
    List.sort (fun (_, _, s1) (_, _, s2) -> compare s2 s1) !writes
  in
  List.iter
    (fun (addr, old, _) ->
      Pwriter.store w addr old;
      Pwriter.clwb w addr)
    writes;
  if writes <> [] then Pwriter.fence w;
  List.iter (fun node -> Undo_log.reset w node) !nodes;
  let n_rolled = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 rolled in
  {
    nodes = List.length !nodes;
    records_scanned = !records_scanned;
    fases_found = n;
    fases_rolled_back = n_rolled;
    writes_undone = List.length writes;
    cost = Pwriter.take_cost w;
  }
