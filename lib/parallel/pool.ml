(* A work-stealing-free domain pool: each [map] publishes one shared step
   function; every participant (pool workers and the submitting caller alike)
   repeatedly claims the next index from an [Atomic] dispenser until the job
   is exhausted.  The caller always helps drain its own job, so a map issued
   from inside a pool task (nested parallelism) can never deadlock even when
   every worker is busy. *)

type step = unit -> bool

type t = {
  m : Mutex.t;
  c : Condition.t; (* work arrival and shutdown *)
  mutable pending : step list;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  parallelism : int;
}
[@@domain_safe
  "pending/stop are only touched under m; workers is only touched by the \
   owning domain (create before any spawn returns, shutdown after every \
   join)"]

let drain (step : step) = while step () do () done

let rec worker_loop pool =
  Mutex.lock pool.m;
  let rec await () =
    if pool.stop then begin
      Mutex.unlock pool.m;
      None
    end
    else begin
      match pool.pending with
      | [] ->
        Condition.wait pool.c pool.m;
        await ()
      | step :: _ ->
        Mutex.unlock pool.m;
        Some step
    end
  in
  match await () with
  | None -> ()
  | Some step ->
    drain step;
    (* exhausted: retire it so idle workers stop picking it up *)
    Mutex.lock pool.m;
    pool.pending <- List.filter (fun s -> s != step) pool.pending;
    Mutex.unlock pool.m;
    worker_loop pool

let create ?domains () =
  let n =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if n < 1 then invalid_arg "Pool.create: domains < 1";
  let pool =
    { m = Mutex.create (); c = Condition.create (); pending = []; stop = false;
      workers = []; parallelism = n }
  in
  (* the caller participates in every map, so n-way parallelism needs only
     n - 1 dedicated domains; jobs = 1 spawns none and runs sequentially *)
  pool.workers <-
    List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let parallelism t = t.parallelism

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let submit t step =
  Mutex.lock t.m;
  t.pending <- t.pending @ [ step ];
  Condition.broadcast t.c;
  Mutex.unlock t.m

let retire t step =
  Mutex.lock t.m;
  t.pending <- List.filter (fun s -> s != step) t.pending;
  Mutex.unlock t.m

let map t ~f n =
  if n < 0 then invalid_arg "Pool.map: negative size";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let m = Mutex.create () and c = Condition.create () in
    let step () =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then false
      else begin
        (* a raising job is captured in its own slot, with the backtrace of
           the domain that ran it, so every other index still runs *)
        (match f i with
        | r -> results.(i) <- Some (Ok r)
        | exception exn ->
          results.(i) <- Some (Error (exn, Printexc.get_raw_backtrace ())));
        if Atomic.fetch_and_add completed 1 = n - 1 then begin
          (* last index done: wake the submitting caller if it is waiting *)
          Mutex.lock m;
          Condition.broadcast c;
          Mutex.unlock m
        end;
        true
      end
    in
    submit t
      (step
      [@shared_ok
        "closes over this job's own results/next/completed/m/c (index-\
         disjoint slots, atomics, a lock) plus the caller's f, which is \
         capture-checked at the caller's pool site"]);
    drain step;
    Mutex.lock m;
    while Atomic.get completed < n do
      Condition.wait c m
    done;
    Mutex.unlock m;
    retire t step;
    (* index order: the lowest-indexed failure is the one re-raised *)
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error (exn, backtrace)) ->
          Printexc.raise_with_backtrace exn backtrace
        | None -> assert false (* completed = n *))
      results
  end

let run ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
