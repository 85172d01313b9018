(* Tests for the domain pool and the parallel experiment harness: result
   ordering, exception propagation, nested maps (the caller-helps invariant),
   and byte-identical experiment tables at --jobs 1 vs --jobs 4. *)

module Pool = Nimbus_parallel.Pool
module Common = Nimbus_experiments.Common
module Registry = Nimbus_experiments.Registry
module Table = Nimbus_experiments.Table

let test_create_invalid () =
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

let test_map_order () =
  Pool.run ~domains:4 (fun p ->
      Alcotest.(check (array int))
        "index order"
        (Array.init 100 (fun i -> i * i))
        (Pool.map p ~f:(fun i -> i * i) 100))

let test_map_sequential () =
  (* parallelism 1: no worker domains, everything runs in the caller *)
  Pool.run ~domains:1 (fun p ->
      Alcotest.(check int) "parallelism" 1 (Pool.parallelism p);
      Alcotest.(check (array int))
        "index order" (Array.init 10 (fun i -> i + 1))
        (Pool.map p ~f:(fun i -> i + 1) 10))

let test_map_empty () =
  Pool.run ~domains:2 (fun p ->
      Alcotest.(check int) "empty" 0 (Array.length (Pool.map p ~f:(fun i -> i) 0)))

let test_map_exception () =
  Pool.run ~domains:4 (fun p ->
      Alcotest.check_raises "re-raised in caller" (Failure "boom") (fun () ->
          ignore
            (Pool.map p ~f:(fun i -> if i = 37 then failwith "boom" else i) 64));
      (* the pool survives a failed map *)
      Alcotest.(check (array int)) "still usable" [| 0; 1; 2 |]
        (Pool.map p ~f:(fun i -> i) 3))

let test_nested_map () =
  (* inner maps issued from pool tasks drain themselves: no deadlock even
     when every worker is inside an outer task *)
  Pool.run ~domains:2 (fun p ->
      let sums =
        Pool.map p
          ~f:(fun i ->
            Array.fold_left ( + ) 0 (Pool.map p ~f:(fun j -> (10 * i) + j) 8))
          6
      in
      Alcotest.(check (array int))
        "nested results"
        (Array.init 6 (fun i -> (80 * i) + 28))
        sums)

let test_shutdown_idempotent () =
  let p = Pool.create ~domains:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* maps after shutdown degrade to running in the caller *)
  Alcotest.(check (array int)) "post-shutdown map" [| 0; 2; 4 |]
    (Pool.map p ~f:(fun i -> 2 * i) 3)

let test_map_runs_every_job () =
  (* two raising jobs: every other index still completes, the lowest-indexed
     failure is the one re-raised, and the pool stays fully usable *)
  Pool.run ~domains:4 (fun p ->
      let ran = Atomic.make 0 in
      Alcotest.check_raises "lowest index re-raised" (Failure "boom13")
        (fun () ->
          ignore
            (Pool.map p
               ~f:(fun i ->
                 Atomic.incr ran;
                 if i = 13 || i = 20 then failwith (Printf.sprintf "boom%d" i)
                 else 2 * i)
               32));
      Alcotest.(check int) "every job ran" 32 (Atomic.get ran);
      Alcotest.(check (array int)) "pool reusable" [| 0; 1; 2; 3 |]
        (Pool.map p ~f:(fun i -> i) 4))

(* --- domain-safety property ------------------------------------------------- *)

(* a mutation-heavy task whose mutable state (bytes buffer, refs, array) is
   all created inside the task body — exactly the discipline the static race
   pass certifies; the property pins down that it really is domain-count
   independent at runtime *)
let churn seed i =
  let b = Bytes.make 64 '\000' in
  let acc = ref (seed lxor (i * 0x9E37)) in
  let arr = Array.make 16 0 in
  for k = 0 to 999 do
    let j = k land 63 in
    Bytes.set b j (Char.chr ((!acc lxor k) land 0xff));
    arr.(k land 15) <- arr.(k land 15) + Char.code (Bytes.get b j);
    acc := ((!acc * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  Array.fold_left ( + ) !acc arr

let prop_mutation_determinism =
  QCheck.Test.make ~count:15
    ~name:"pool: mutation-heavy map identical across domains 1/2/4"
    QCheck.(pair (int_range 1 64) (int_range 0 10_000))
    (fun (n, seed) ->
      let run domains =
        Pool.run ~domains (fun p -> Pool.map p ~f:(fun i -> churn seed i) n)
      in
      let r1 = run 1 in
      r1 = run 2 && r1 = run 4)

(* --- harness determinism --------------------------------------------------- *)

let run_experiment_with_jobs id jobs =
  let e =
    match Registry.find id with
    | Some e -> e
    | None -> Alcotest.failf "experiment %s not registered" id
  in
  Pool.run ~domains:jobs (fun pool ->
      e.Registry.run { Common.quick with pool = Some pool })

let test_jobs_determinism () =
  (* zest goes through both map_cases and run_seeds, faults also through
     run_case; their rendered tables and CSV must be byte-identical whatever
     the pool size *)
  let render tables =
    String.concat "\n"
      (List.concat_map (fun t -> [ Table.render t; Table.to_csv t ]) tables)
  in
  List.iter
    (fun id ->
      let sequential = render (run_experiment_with_jobs id 1) in
      let parallel = render (run_experiment_with_jobs id 4) in
      Alcotest.(check string) (id ^ ": jobs 1 = jobs 4") sequential parallel)
    [ "zest"; "faults" ]

let suite =
  [ ( "parallel.pool",
      [ Alcotest.test_case "create validation" `Quick test_create_invalid;
        Alcotest.test_case "map order" `Quick test_map_order;
        Alcotest.test_case "sequential pool" `Quick test_map_sequential;
        Alcotest.test_case "empty map" `Quick test_map_empty;
        Alcotest.test_case "exception propagation" `Quick test_map_exception;
        Alcotest.test_case "nested maps" `Quick test_nested_map;
        Alcotest.test_case "shutdown" `Quick test_shutdown_idempotent;
        Alcotest.test_case "map runs every job" `Quick test_map_runs_every_job;
        QCheck_alcotest.to_alcotest prop_mutation_determinism ] );
    ( "parallel.harness",
      [ Alcotest.test_case "jobs 1 = jobs 4 tables" `Slow test_jobs_determinism
      ] ) ]
