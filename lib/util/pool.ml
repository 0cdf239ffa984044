(* The contract (submission-order results, a serial pool that runs each
   task at [submit]) is documented in pool.mli.

   Scheduling: one mutex guards the queue, the [closed] flag and every
   future's state.  Workers wait on [work] ("a task was queued or the
   pool closed") and take the oldest task until the pool is closed and
   the queue is drained.  [await] {e helps}: while its future is
   pending it takes and runs the newest queued task, and it waits on
   [finished] ("a task finished") only when the queue is empty — by
   then its own task has been claimed by another domain, so the wait
   cannot deadlock, and a pool of [jobs] computes on exactly [jobs]
   domains.  Taking from opposite ends makes the workers and the
   awaiting domain meet in the middle of a batch, so a costly tail
   (the fuzzer appends random genomes to its seed batch) starts early
   instead of running alone at the end.  Each task is a whole
   simulation or a batch of them (milliseconds), so one lock per
   dispatch costs nothing measurable. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type t = {
  jobs : int;
  mutex : Mutex.t; (* guards the fields below and every future's state *)
  work : Condition.t; (* a task was queued, or the pool closed *)
  finished : Condition.t; (* a task finished *)
  mutable tasks : (unit -> unit) array;
      (* the queue: tasks.(first) .. tasks.(last - 1), oldest first *)
  mutable first : int;
  mutable last : int;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

type 'a future = { pool : t; mutable state : 'a state }

let default_jobs () = Domain.recommended_domain_count ()
let no_task () = ()

(* Queue operations; the caller holds [pool.mutex].  A push onto a full
   array moves the queued tasks into a fresh array with room for as many
   again. *)

let push pool task =
  if pool.last = Array.length pool.tasks then begin
    let queued = pool.last - pool.first in
    let tasks = Array.make (max 16 (2 * queued)) no_task in
    Array.blit pool.tasks pool.first tasks 0 queued;
    pool.tasks <- tasks;
    pool.first <- 0;
    pool.last <- queued
  end;
  pool.tasks.(pool.last) <- task;
  pool.last <- pool.last + 1

let take pool ~newest =
  if pool.first = pool.last then None
  else begin
    let i = if newest then pool.last - 1 else pool.first in
    let task = pool.tasks.(i) in
    (* Clear the slot: the queue must not keep a taken closure alive. *)
    pool.tasks.(i) <- no_task;
    if newest then pool.last <- i else pool.first <- i + 1;
    Some task
  end

(* Run queued tasks until the pool is closed and the queue is empty. *)
let rec work_loop pool =
  let next =
    Mutex.protect pool.mutex (fun () ->
        while pool.first = pool.last && not pool.closed do
          Condition.wait pool.work pool.mutex
        done;
        take pool ~newest:false)
  in
  match next with
  | Some task ->
      task ();
      work_loop pool
  | None -> ()

(* Close, then drain on the calling domain alongside the workers (no
   submitted task is dropped), then join.  Idempotent. *)
let shutdown pool =
  Mutex.protect pool.mutex (fun () ->
      pool.closed <- true;
      Condition.broadcast pool.work);
  work_loop pool;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let create jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "jobs must be >= 1 (got %d)" jobs);
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = [||];
      first = 0;
      last = 0;
      closed = false;
      domains = [];
    }
  in
  (try
     for _ = 2 to jobs do
       pool.domains <- Domain.spawn (fun () -> work_loop pool) :: pool.domains
     done
   with Failure _ ->
     (* The runtime's domain limit (or memory) ran out part-way. *)
     let started = List.length pool.domains + 1 in
     shutdown pool;
     invalid_arg
       (Printf.sprintf
          "jobs must be <= %d (got %d): the runtime cannot start more domains"
          started jobs));
  pool

let with_pool jobs f =
  let pool = create jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let with_jobs jobs f =
  if jobs = 1 then f None else with_pool jobs (fun pool -> f (Some pool))

let submit pool f =
  let fut = { pool; state = Pending } in
  let task () =
    let st =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.protect pool.mutex (fun () ->
        fut.state <- st;
        Condition.broadcast pool.finished)
  in
  Mutex.protect pool.mutex (fun () ->
      if pool.closed then invalid_arg "Pool.submit: pool is shut down";
      if pool.jobs > 1 then begin
        push pool task;
        Condition.signal pool.work
      end);
  if pool.jobs = 1 then task ();
  fut

let await fut =
  let pool = fut.pool in
  Mutex.lock pool.mutex;
  let rec wait () =
    match fut.state with
    | Done v ->
        Mutex.unlock pool.mutex;
        v
    | Failed (e, bt) ->
        Mutex.unlock pool.mutex;
        Printexc.raise_with_backtrace e bt
    | Pending ->
        (match take pool ~newest:true with
        | Some task ->
            Mutex.unlock pool.mutex;
            task ();
            Mutex.lock pool.mutex
        | None -> Condition.wait pool.finished pool.mutex);
        wait ()
  in
  wait ()

(* Order-preserving maps.  All tasks are submitted before any await;
   results are awaited (and any exception re-raised) in submission
   order, making the result independent of completion order. *)

let map_list pool f xs =
  List.map await (List.map (fun x -> submit pool (fun () -> f x)) xs)

(* Chunked dispatch: one future per batch of [chunk] consecutive
   elements, so per-task scheduling overhead is paid once per batch
   rather than once per element.  Results are concatenated in
   submission order, so the output is byte-identical at every chunk
   size and every [-j].  [chunk = 0] picks a size that yields a few
   batches per worker for load balance. *)

let chunks_per_job = 4

let default_chunk ~jobs n =
  if jobs <= 1 || n <= 0 then max 1 n
  else max 1 ((n + (chunks_per_job * jobs) - 1) / (chunks_per_job * jobs))

let chunks_of k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 tl
        else go acc (x :: cur) (n + 1) tl
  in
  go [] [] 0 xs

let map_chunks ?(chunk = 0) pool f xs =
  if chunk < 0 then invalid_arg "Pool.map_chunks: chunk must be >= 0";
  if pool.jobs <= 1 then List.map f xs
  else begin
    let n = List.length xs in
    let k = if chunk = 0 then default_chunk ~jobs:pool.jobs n else chunk in
    if k >= n then List.map f xs
    else List.concat (map_list pool (List.map f) (chunks_of k xs))
  end

(* [None] means "no pool": run serially without any queue machinery. *)

let opt_map_list ?(chunk = 1) pool f xs =
  if chunk < 0 then invalid_arg "Pool.opt_map_list: chunk must be >= 0";
  match pool with
  | Some pool when pool.jobs > 1 ->
      if chunk = 1 then map_list pool f xs else map_chunks ~chunk pool f xs
  | _ -> List.map f xs
