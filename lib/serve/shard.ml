open Ido_workloads
module Q = Stdlib.Queue
module Vm = Ido_vm.Vm
module Pmem = Ido_nvm.Pmem

type outcome = {
  group : int;
  served : int;
  replayed : int;
  dropped : int;
  lat : Lat.t;
  busy_until : int;
  sim_ns : int;
  replica_ns : int;
  crashes : int;
  failovers : int;
  replicas_lost : int;
  split_off : bool;
  merged_away : bool;
  recovery_ns : int;
  unavail_ns : int;
  max_stall_ns : int;
  oracle : (unit, string) result;
  consistency : (unit, string) result;
}

(* A machine serves millions of one-request threads, so the
   benchmark-sized per-thread logs would exhaust persistent memory:
   shrink the log capacities to what a single request can need and
   give the region 4M words.  [reap] between batches recycles the
   finished threads' stacks and log arenas, so the footprint tracks
   the batch size, not the requests served. *)
let vm_config (c : Config.t) ~seed =
  let base = Vm.config c.Config.scheme in
  {
    base with
    Vm.seed;
    opt = c.Config.opt;
    pmem_words = 1 lsl 22;
    undo_cap = 1 lsl 7;
    redo_cap = 1 lsl 7;
    page_cap = 8;
  }

let mem_of m =
  let pm = Vm.pmem m in
  { Oracle.load = Pmem.load pm; size = Pmem.size pm }

(* Primaries, replicas and split children are all plain machines; they
   differ only in seed salt and in who charges their work. *)
let boot ~obs (c : Config.t) ~seed program =
  let m = Vm.create (vm_config c ~seed) program in
  Vm.run_init m;
  (* Observed window: everything after durable setup, exactly the
     [Engine.run_traced] protocol — the sink is installed here and
     detached only after the machine's final [flush_all]. *)
  if obs then Vm.set_obs m (Some (Ido_obs.Obs.create ~buffer:false ()));
  m

(* Final flush + obs reconciliation + oracle on a machine leaving
   service (stream end, or a merge retiring its station early). *)
let retire_machine ~config ~oracle m =
  Vm.flush_all m;
  let consistency = Vm.obs_check m in
  Vm.set_obs m None;
  let root = Ido_region.Region.get_root (Vm.region m) 0 in
  let mode = Oracle.default_mode config.Config.scheme in
  let o = Oracle.check oracle ~mode ~root (mem_of m) in
  (o, consistency)

type station = {
  mutable prim : Vm.t;
  mutable reps : Vm.t list;
  mutable busy : int;
  mutable sim_ns : int;
  mutable replica_ns : int;
  mutable crashes : int;
  mutable failovers : int;
  mutable replicas_lost : int;
  mutable recovery_ns : int;
  mutable unavail_ns : int;
  mutable max_stall_ns : int;
  mutable timed : Fault.event list;  (** pending wall-clock events, ascending *)
  mutable retired : bool;
  mutable checks : ((unit, string) result * (unit, string) result) list;
}

let stall st ns =
  st.unavail_ns <- st.unavail_ns + ns;
  if ns > st.max_stall_ns then st.max_stall_ns <- ns

let event_at = function
  | Fault.Crash_at { at_ns; _ } | Fault.Replica_loss { at_ns; _ } -> at_ns
  | Fault.Crash _ -> assert false

type lane = {
  mutable station : station;
  mutable filter : Gen.request -> bool;
  pending : Gen.request Q.t;
  mutable served : int;
  mutable replayed : int;
  mutable dropped : int;
  lane_lat : Lat.t;
}

(* Per-group context: the shared stream the group's lanes pull from,
   the request-indexed crash events (the fired flag is shared so a
   crash lands exactly once even after a split), and the reshard
   state. *)
type gctx = {
  gid : int;
  stream : Gen.stream;
  mutable lanes : lane list;  (** routing order: new request goes to
                                  the first lane whose filter takes it *)
  mutable crash_req : (Fault.crash_plan * bool ref) list;
  split_at : int option;  (** sub-stream index triggering a split *)
  mutable split_done : bool;
  merge_at : int option;  (** wall ns; set on the cold group *)
  mutable merged : bool;
  mutable stations : station list;  (** homed here, creation order *)
}

(* Pull from the group's shared stream until this lane's queue has a
   head (each pulled request is routed to the lane that owns its key
   half).  Pre-split there is one lane, and this looks one request
   ahead in the group's stream. *)
let rec lane_peek (g : gctx) (ln : lane) =
  if not (Q.is_empty ln.pending) then Some (Q.peek ln.pending)
  else
    match Gen.next g.stream with
    | None -> None
    | Some r ->
        let target = List.find (fun l -> l.filter r) g.lanes in
        Q.push r target.pending;
        lane_peek g ln

let spawn_batch vm (batch : Gen.request array) =
  Array.map
    (fun (r : Gen.request) ->
      Vm.spawn vm ~fname:"request"
        ~args:
          [
            Int64.of_int r.Gen.dice;
            Int64.of_int r.Gen.key;
            Int64.of_int r.Gen.value;
          ])
    batch

(* Replication is asynchronous: an acknowledged batch is applied to
   each warm replica off the serving clock, so it costs [replica_ns]
   (real machine time) but never moves the station's busy horizon. *)
let apply_on_replicas st batch =
  List.iter
    (fun rep ->
      Vm.reap rep;
      let b0 = Vm.clock rep in
      ignore (spawn_batch rep batch : Vm.thread array);
      (match Vm.run rep with
      | `Idle -> ()
      | _ -> failwith "Serve: replica batch did not finish");
      st.replica_ns <- st.replica_ns + (Vm.clock rep - b0))
    st.reps

(* Lose the most recently attached replica; no clock effect — the
   loss only narrows the failover options. *)
let lose_replica st =
  match List.rev st.reps with
  | [] -> ()
  | _lost :: kept ->
      st.reps <- List.rev kept;
      st.replicas_lost <- st.replicas_lost + 1

(* The machine stopped at [crash_clock] mid-batch (power fail).  With
   no replica: the PR-5 path — count threads that recorded their
   observation as served, drop the rest, recover in place, charge the
   recovery horizon.  With a warm replica: discard the dead primary,
   promote after [detect_ns], and replay the whole unacknowledged
   batch on the promoted machine — everything serves, nothing drops,
   and the stall is detection plus the replay span. *)
let crash_mid_batch ~detect_ns ~t0 ~base ~batch ~threads st (ln : lane) =
  let crash_clock = Vm.clock st.prim in
  let t_crash = t0 + (crash_clock - base) in
  st.crashes <- st.crashes + 1;
  if st.reps = [] then begin
    Array.iteri
      (fun k th ->
        let r = batch.(k) in
        if Vm.observations th <> [] then begin
          let finish = t0 + (Vm.thread_clock th - base) in
          Lat.add ln.lane_lat (finish - r.Gen.arrival);
          ln.served <- ln.served + 1
        end
        else ln.dropped <- ln.dropped + 1)
      threads;
    Vm.crash st.prim;
    let stats = Vm.recover st.prim in
    let rec_ns = stats.Ido_vm.Recover.simulated_time in
    st.recovery_ns <- st.recovery_ns + rec_ns;
    st.sim_ns <- st.sim_ns + (crash_clock - base) + rec_ns;
    st.busy <- t_crash + rec_ns;
    stall st rec_ns
  end
  else begin
    ignore (threads : Vm.thread array);
    (* The dead primary is discarded without checks — its image is the
       one the replica replaces. *)
    let promoted = List.hd st.reps in
    st.reps <- List.tl st.reps;
    st.prim <- promoted;
    st.failovers <- st.failovers + 1;
    let promo = t_crash + detect_ns in
    Vm.reap promoted;
    let base' = Vm.clock promoted in
    let threads' = spawn_batch promoted batch in
    (match Vm.run promoted with
    | `Idle -> ()
    | _ -> failwith "Serve: failover replay did not finish");
    Array.iteri
      (fun k th ->
        let r = batch.(k) in
        let finish = promo + (Vm.thread_clock th - base') in
        Lat.add ln.lane_lat (finish - r.Gen.arrival);
        ln.served <- ln.served + 1;
        ln.replayed <- ln.replayed + 1)
      threads';
    let end' = Vm.clock promoted in
    st.sim_ns <- st.sim_ns + (crash_clock - base) + (end' - base');
    st.busy <- promo + (end' - base');
    stall st (st.busy - t_crash);
    (* The replayed batch is acknowledged now: surviving replicas
       apply it like any other. *)
    apply_on_replicas st batch
  end

(* A wall-clock crash landing while the station is idle (between
   batches, or after its stream drained). *)
let crash_idle ~detect_ns ~at st =
  st.crashes <- st.crashes + 1;
  if st.reps = [] then begin
    Vm.crash st.prim;
    let stats = Vm.recover st.prim in
    let rec_ns = stats.Ido_vm.Recover.simulated_time in
    st.recovery_ns <- st.recovery_ns + rec_ns;
    st.sim_ns <- st.sim_ns + rec_ns;
    st.busy <- max st.busy at + rec_ns;
    stall st rec_ns
  end
  else begin
    st.prim <- List.hd st.reps;
    st.reps <- List.tl st.reps;
    st.failovers <- st.failovers + 1;
    st.busy <- max st.busy at + detect_ns;
    stall st detect_ns
  end

let apply_timed_event ~detect_ns st = function
  | Fault.Crash_at { at_ns; _ } -> crash_idle ~detect_ns ~at:at_ns st
  | Fault.Replica_loss _ -> lose_replica st
  | Fault.Crash _ -> assert false

let complete_batch ~t0 ~base ~batch ~threads st (ln : lane) =
  Array.iteri
    (fun k th ->
      let r = batch.(k) in
      let finish = t0 + (Vm.thread_clock th - base) in
      Lat.add ln.lane_lat (finish - r.Gen.arrival);
      ln.served <- ln.served + 1)
    threads;
  let end_clock = Vm.clock st.prim in
  st.sim_ns <- st.sim_ns + (end_clock - base);
  st.busy <- t0 + (end_clock - base);
  apply_on_replicas st batch

let run_unit ?(obs = false) ~fault ~config ~program ~oracle ~plan members =
  let c = (config : Config.t) in
  let detect_ns = fault.Fault.detect_ns in
  let topo = c.Config.topology in
  let hot = Gen.hottest plan and cold = Gen.coldest plan in
  let fresh_station ~prim ~reps ~busy =
    {
      prim;
      reps;
      busy;
      sim_ns = 0;
      replica_ns = 0;
      crashes = 0;
      failovers = 0;
      replicas_lost = 0;
      recovery_ns = 0;
      unavail_ns = 0;
      max_stall_ns = 0;
      timed = [];
      retired = false;
      checks = [];
    }
  in
  (* Boot every member group's station: primary (salt 0, the
     historical seed) then each replica (salt 2+i).  Lane order and
     station order are the member order — deterministic. *)
  let ctxs =
    List.map
      (fun gid ->
        let prim = boot ~obs c ~seed:(Config.shard_seed c gid) program in
        let reps =
          List.init topo.Topology.replicas (fun i ->
              boot ~obs c ~seed:(Config.shard_seed ~salt:(2 + i) c gid) program)
        in
        let st = fresh_station ~prim ~reps ~busy:(Vm.clock prim) in
        let ln =
          {
            station = st;
            filter = (fun _ -> true);
            pending = Q.create ();
            served = 0;
            replayed = 0;
            dropped = 0;
            lane_lat = Lat.create ();
          }
        in
        let g =
          {
            gid;
            stream = Gen.sub_stream plan gid;
            lanes = [ ln ];
            crash_req = [];
            split_at =
              (if topo.Topology.reshard = Some Topology.Split && gid = hot
               then Some (Gen.shard_count plan gid / 2)
               else None);
            split_done = false;
            merge_at =
              (if topo.Topology.reshard = Some Topology.Merge && gid = cold
               then Some (Config.mid_stream_ns c)
               else None);
            merged = false;
            stations = [ st ];
          }
        in
        g)
      members
  in
  let ctx_of gid = List.find (fun g -> g.gid = gid) ctxs in
  (* Distribute this unit's fault events.  Request-indexed crashes go
     to the group context; wall-clock events to the group's (initial)
     station, sorted by instant. *)
  List.iter
    (fun ev ->
      match ev with
      | Fault.Crash pl when List.mem pl.Fault.shard members ->
          let g = ctx_of pl.Fault.shard in
          g.crash_req <- g.crash_req @ [ (pl, ref false) ]
      | (Fault.Crash_at { group; _ } | Fault.Replica_loss { group; _ })
        when List.mem group members ->
          let st = List.hd (ctx_of group).stations in
          st.timed <- st.timed @ [ ev ]
      | _ -> ())
    fault.Fault.events;
  List.iter
    (fun g ->
      List.iter
        (fun st ->
          st.timed <-
            List.stable_sort (fun a b -> compare (event_at a) (event_at b))
              st.timed)
        g.stations)
    ctxs;
  (* The live lane list, in deterministic dispatch-priority order:
     member order, split children appended as they are created. *)
  let lanes = ref (List.concat_map (fun g -> List.map (fun l -> (g, l)) g.lanes) ctxs) in
  let do_split (g : gctx) (ln : lane) =
    g.split_done <- true;
    let st = ln.station in
    let consumed = Option.get g.split_at in
    let si = Gen.split_info plan ~group:g.gid in
    (* The heavier half keeps the warm machine; the lighter half's
       state (about half the records touched so far) migrates to a
       freshly booted child. *)
    let keep_bit = si.Gen.move_mass > si.Gen.stay_mass in
    let pause = Topology.migrate_ns ~records:(consumed / 2) in
    st.busy <- st.busy + pause;
    stall st pause;
    let child =
      boot ~obs c ~seed:(Config.shard_seed ~salt:8 c g.gid) program
    in
    let cst = fresh_station ~prim:child ~reps:[] ~busy:st.busy in
    g.stations <- g.stations @ [ cst ];
    ln.filter <- (fun r -> Gen.split_bit r.Gen.key = keep_bit);
    let child_lane =
      {
        station = cst;
        filter = (fun r -> Gen.split_bit r.Gen.key <> keep_bit);
        pending = Q.create ();
        served = 0;
        replayed = 0;
        dropped = 0;
        lane_lat = Lat.create ();
      }
    in
    (* Re-route the parent's queued requests across the two lanes,
       order preserved. *)
    let tmp = Q.create () in
    Q.transfer ln.pending tmp;
    Q.iter
      (fun r ->
        if ln.filter r then Q.push r ln.pending
        else Q.push r child_lane.pending)
      tmp;
    g.lanes <- g.lanes @ [ child_lane ];
    lanes := !lanes @ [ (g, child_lane) ]
  in
  let retire_station st =
    if not st.retired then begin
      st.retired <- true;
      st.checks <-
        st.checks
        @ List.map (retire_machine ~config:c ~oracle) (st.prim :: st.reps)
    end
  in
  let do_merge (g : gctx) (ln : lane) ~merge_at =
    g.merged <- true;
    let sc = ln.station in
    let hot_st =
      (* The hot group's current primary station: where its (first)
         lane is bound now. *)
      (List.hd (ctx_of hot).lanes).station
    in
    (* Retire the cold machine now — its image must already be
       consistent at the handoff — then charge the hot station for
       absorbing the cold group's records. *)
    retire_station sc;
    let pause = Topology.migrate_ns ~records:ln.served in
    hot_st.busy <- max hot_st.busy merge_at + pause;
    stall hot_st pause;
    hot_st.timed <-
      List.stable_sort (fun a b -> compare (event_at a) (event_at b))
        (hot_st.timed @ sc.timed);
    sc.timed <- [];
    ln.station <- hot_st
  in
  (* The dispatch loop: serve the lane whose next batch starts
     earliest.  For one lane and no faults this is exactly the
     historical per-shard loop. *)
  let continue = ref true in
  while !continue do
    let pick =
      List.fold_left
        (fun best (g, ln) ->
          match lane_peek g ln with
          | None -> best
          | Some r ->
              let t0 = max ln.station.busy r.Gen.arrival in
              (match best with
              | Some (_, _, bt0, _) when bt0 <= t0 -> best
              | _ -> Some (g, ln, t0, r)))
        None !lanes
    in
    match pick with
    | None -> continue := false
    | Some (g, ln, t0, head) -> (
        let st = ln.station in
        (* Events and reshards due at or before this dispatch apply
           first; each application re-runs the pick (horizons moved). *)
        match st.timed with
        | ev :: rest when event_at ev <= t0 ->
            st.timed <- rest;
            apply_timed_event ~detect_ns st ev
        | _ ->
            if
              (match g.merge_at with
              | Some m -> (not g.merged) && t0 >= m
              | None -> false)
            then do_merge g ln ~merge_at:(Option.get g.merge_at)
            else if
              (match g.split_at with
              | Some a -> (not g.split_done) && head.Gen.id >= a
              | None -> false)
            then do_split g ln
            else begin
              (* Drain up to [batch] arrived requests; the head has
                 [t0 >= arrival], so a batch is never empty. *)
              let acc = ref [] and bn = ref 0 in
              let draining = ref true in
              while !draining do
                match lane_peek g ln with
                | Some r when !bn < c.Config.batch && r.Gen.arrival <= t0 ->
                    ignore (Q.pop ln.pending);
                    acc := r :: !acc;
                    incr bn
                | _ -> draining := false
              done;
              let batch = Array.of_list (List.rev !acc) in
              let max_id =
                Array.fold_left (fun a r -> max a r.Gen.id) (-1) batch
              in
              Vm.reap st.prim;
              let base = Vm.clock st.prim in
              let threads = spawn_batch st.prim batch in
              let crash_here =
                List.find_opt
                  (fun ((pl : Fault.crash_plan), fired) ->
                    (not !fired) && max_id >= pl.Fault.at_request)
                  g.crash_req
              in
              match crash_here with
              | Some (pl, fired) ->
                  fired := true;
                  ignore (Vm.run ~until:(base + pl.Fault.after_ns) st.prim);
                  crash_mid_batch ~detect_ns ~t0 ~base ~batch ~threads st ln
              | None -> (
                  (* A pending wall-clock crash strictly after [t0]
                     may land inside this batch: run up to it and
                     crash only if the batch is still in flight. *)
                  let cut =
                    match st.timed with
                    | Fault.Crash_at { at_ns; _ } :: _ -> Some at_ns
                    | _ -> None
                  in
                  match cut with
                  | Some at_ns -> (
                      match
                        Vm.run ~until:(base + (at_ns - t0)) st.prim
                      with
                      | `Idle -> complete_batch ~t0 ~base ~batch ~threads st ln
                      | `Until ->
                          st.timed <- List.tl st.timed;
                          crash_mid_batch ~detect_ns ~t0 ~base ~batch ~threads
                            st ln
                      | _ -> failwith "Serve: batch deadlocked")
                  | None ->
                      (match Vm.run st.prim with
                      | `Idle -> ()
                      | `Deadlock -> failwith "Serve: batch deadlocked"
                      | _ -> failwith "Serve: batch did not finish");
                      complete_batch ~t0 ~base ~batch ~threads st ln)
            end)
  done;
  (* Streams drained: leftover wall-clock events hit idle stations,
     then every surviving machine retires through the full
     flush/reconcile/oracle protocol. *)
  List.iter
    (fun g ->
      List.iter
        (fun st ->
          List.iter (apply_timed_event ~detect_ns st) st.timed;
          st.timed <- [])
        g.stations)
    ctxs;
  List.iter (fun g -> List.iter retire_station g.stations) ctxs;
  List.map
    (fun g ->
      let lat = Lat.create () in
      List.iter (fun l -> Lat.merge ~into:lat l.lane_lat) g.lanes;
      let sum f = List.fold_left (fun a l -> a + f l) 0 g.lanes in
      let stat f = List.fold_left (fun a st -> a + f st) 0 g.stations in
      let first_error pick =
        List.fold_left
          (fun acc ck ->
            match acc with Error _ -> acc | Ok () -> pick ck)
          (Ok ())
          (List.concat_map (fun st -> st.checks) g.stations)
      in
      {
        group = g.gid;
        served = sum (fun l -> l.served);
        replayed = sum (fun l -> l.replayed);
        dropped = sum (fun l -> l.dropped);
        lat;
        busy_until =
          List.fold_left (fun a st -> max a st.busy) 0 g.stations;
        sim_ns = stat (fun st -> st.sim_ns);
        replica_ns = stat (fun st -> st.replica_ns);
        crashes = stat (fun st -> st.crashes);
        failovers = stat (fun st -> st.failovers);
        replicas_lost = stat (fun st -> st.replicas_lost);
        split_off = g.split_done;
        merged_away = g.merged;
        recovery_ns = stat (fun st -> st.recovery_ns);
        unavail_ns = stat (fun st -> st.unavail_ns);
        max_stall_ns =
          List.fold_left (fun a st -> max a st.max_stall_ns) 0 g.stations;
        oracle = first_error fst;
        consistency = first_error snd;
      })
    ctxs
