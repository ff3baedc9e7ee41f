(* Domain-parallelism tests: the work-stealing pool's scheduling
   contract, the batch runner's jobs-invariance (byte-identical TSV at
   every --jobs value, including against the committed golden), memo
   tables hammered from several domains at once, and the obs layer's
   counters and span stacks under concurrency. *)

module Engine = Gpp_engine
module Config = Gpp_engine.Config
module Pool = Gpp_engine.Pool
module Memo = Gpp_cache.Memo
module Obs = Gpp_obs.Obs

(* --- pool ------------------------------------------------------------ *)

(* Every index runs exactly once, whatever the worker count.  The slots
   are disjoint per index, so the unsynchronized writes are safe and the
   joins in Pool.run order them before the reads. *)
let test_pool_covers_indices () =
  List.iter
    (fun (jobs, n) ->
      let hits = Array.make (max n 1) 0 in
      Pool.run ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i c ->
          if i < n && c <> 1 then Alcotest.failf "jobs=%d: index %d ran %d times" jobs i c;
          if i >= n && c <> 0 then Alcotest.failf "jobs=%d: phantom index %d" jobs i)
        hits)
    [ (1, 100); (2, 100); (8, 100); (3, 1); (4, 0); (64, 50) ]

(* Out-of-range worker counts are rejected, not silently clamped:
   --jobs 200 must not quietly run on 64 domains. *)
let test_pool_rejects_out_of_range_jobs () =
  List.iter
    (fun jobs ->
      match Pool.run ~jobs 10 (fun _ -> ()) with
      | () -> Alcotest.failf "jobs=%d: expected Invalid_argument" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -1; Pool.max_jobs + 1; 1000 ]

(* The same range is enforced at the config layer, as a structured
   config error (exit 2) whichever layer supplied the value. *)
let test_config_rejects_out_of_range_jobs () =
  let getenv = function "GPP_JOBS" -> Some "200" | _ -> None in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  (match Config.resolve ~getenv () with
  | Ok _ -> Alcotest.fail "GPP_JOBS=200: expected a config error"
  | Error e ->
      Alcotest.(check int) "exit code" 2 (Gpp_core.Error.exit_code e);
      let msg = Gpp_core.Error.message e in
      Alcotest.(check bool) ("mentions range: " ^ msg) true (contains ~sub:"out of range" msg));
  match Config.resolve ~getenv:(fun _ -> None) ~flags:[ ("jobs", "0") ] () with
  | Ok _ -> Alcotest.fail "--jobs 0: expected a config error"
  | Error e -> Alcotest.(check int) "exit code" 2 (Gpp_core.Error.exit_code e)

let test_pool_sequential_order () =
  let seen = ref [] in
  Pool.run ~jobs:1 5 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "index order" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

let test_pool_propagates_exception () =
  (try
     Pool.run ~jobs:4 16 (fun i -> if i = 7 then failwith "boom-7");
     Alcotest.fail "expected the task exception to propagate"
   with Failure msg -> Alcotest.(check string) "task exception" "boom-7" msg);
  (* The pool is reusable after a failed run. *)
  let count = Atomic.make 0 in
  Pool.run ~jobs:4 16 (fun _ -> Atomic.incr count);
  Alcotest.(check int) "pool survives a failure" 16 (Atomic.get count)

let test_pool_default_jobs () =
  let d = Pool.default_jobs () in
  Alcotest.(check bool) "at least one" true (d >= 1);
  Alcotest.(check bool) "within max" true (d <= Pool.max_jobs)

(* --- memo under domains ---------------------------------------------- *)

(* Several domains hammer one table over a keyspace smaller than its
   capacity: values must never be corrupted, every lookup must be
   counted exactly once, and the table must stay within capacity.  The
   compute counter equals the miss counter — a lookup is a miss exactly
   when its caller ran the computation. *)
let test_memo_domain_stress () =
  let t = Memo.create ~capacity:64 ~name:"test-parallel-memo" () in
  let domains = 4 and per = 2_000 and keyspace = 40 in
  let computes = Atomic.make 0 in
  let worker d () =
    for i = 0 to per - 1 do
      let k = (d + i) mod keyspace in
      let v =
        Memo.find_or_add t
          ~key:(Printf.sprintf "k%d" k)
          (fun () ->
            Atomic.incr computes;
            k * 7)
      in
      if v <> k * 7 then failwith (Printf.sprintf "corrupt value for k%d: %d" k v)
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  let s = Memo.snapshot t in
  Alcotest.(check int) "every lookup counted once" (domains * per) (s.Memo.hits + s.Memo.misses);
  Alcotest.(check int) "misses = computations run" (Atomic.get computes) s.Memo.misses;
  Alcotest.(check bool) "all keys seen" true (s.Memo.misses >= keyspace);
  Alcotest.(check int) "no evictions below capacity" 0 s.Memo.evictions;
  Alcotest.(check bool) "entries within capacity" true (s.Memo.entries <= s.Memo.capacity)

(* --- obs under domains ----------------------------------------------- *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_obs_parallel_counters () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.parallel.hits" in
  let domains = 4 and per = 10_000 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Obs.incr c
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no lost increments" (domains * per) (Obs.value c)

let test_obs_parallel_spans () =
  with_obs @@ fun () ->
  let domains = 4 and per = 100 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ()))
            done;
            Obs.depth ()))
  in
  let depths = List.map Domain.join spawned in
  List.iter (fun d -> Alcotest.(check int) "span stack balanced" 0 d) depths;
  let count_of name =
    match List.find_opt (fun (a : Obs.agg) -> a.Obs.name = name) (Obs.aggregates ()) with
    | Some a -> a.Obs.count
    | None -> 0
  in
  Alcotest.(check int) "outer spans all aggregated" (domains * per) (count_of "outer");
  Alcotest.(check int) "inner spans all aggregated" (domains * per) (count_of "inner")

(* --- batch jobs-invariance ------------------------------------------- *)

(* The same small matrix (including failing cells) must render the same
   TSV at every jobs value — the parallel path splits cells around the
   serial transfer pricing, so scheduling cannot leak into the output. *)
let test_batch_jobs_invariant () =
  let config = Config.default in
  let run jobs =
    Engine.Batch.to_tsv
      (Engine.Batch.run ~jobs ~iterations:[ None; Some 4 ] config
         ~workloads:[ "vecadd/16M"; "nope/1" ])
  in
  let sequential = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "jobs=%d equals jobs=1" jobs) sequential (run jobs))
    [ 2; 8 ]

(* The full paper matrix at jobs=4 against the committed golden — the
   same file the CI batch leg diffs the CLI output against. *)
let test_batch_golden_parallel () =
  let config = { Config.default with Config.use_cache = Some false } in
  let machines = [ Gpp_arch.Machine.argonne_node; Gpp_arch.Machine.gt200_node ] in
  let workloads = List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances in
  let batch = Engine.Batch.run ~machines ~jobs:4 config ~workloads in
  (* dune runtest runs in _build/default/test; dune exec from the root. *)
  let golden =
    List.find Sys.file_exists [ "golden/batch.expected.tsv"; "test/golden/batch.expected.tsv" ]
  in
  let expected = In_channel.with_open_text golden In_channel.input_all in
  Alcotest.(check string) "parallel batch matches golden" expected (Engine.Batch.to_tsv batch)

(* The plan-policy plumbing must not perturb default outputs: a config
   that names Conservative explicitly is byte-identical to the
   committed golden, sequentially and under the domain pool. *)
let test_batch_golden_explicit_conservative () =
  let module Analyzer = Gpp_dataflow.Analyzer in
  let config =
    {
      Config.default with
      Config.use_cache = Some false;
      policy = Some { Analyzer.default_policy with Analyzer.plan = Analyzer.Conservative };
    }
  in
  let machines = [ Gpp_arch.Machine.argonne_node; Gpp_arch.Machine.gt200_node ] in
  let workloads = List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances in
  let golden =
    List.find Sys.file_exists [ "golden/batch.expected.tsv"; "test/golden/batch.expected.tsv" ]
  in
  let expected = In_channel.with_open_text golden In_channel.input_all in
  List.iter
    (fun jobs ->
      let batch = Engine.Batch.run ~machines ~jobs config ~workloads in
      Alcotest.(check string)
        (Printf.sprintf "explicit conservative matches golden at jobs=%d" jobs)
        expected (Engine.Batch.to_tsv batch))
    [ 1; 4 ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "covers indices" `Quick test_pool_covers_indices;
          Alcotest.test_case "sequential order" `Quick test_pool_sequential_order;
          Alcotest.test_case "propagates exception" `Quick test_pool_propagates_exception;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
          Alcotest.test_case "rejects out-of-range jobs" `Quick
            test_pool_rejects_out_of_range_jobs;
          Alcotest.test_case "config rejects out-of-range jobs" `Quick
            test_config_rejects_out_of_range_jobs;
        ] );
      ( "memo",
        [ Alcotest.test_case "domain stress" `Quick test_memo_domain_stress ] );
      ( "obs",
        [
          Alcotest.test_case "parallel counters" `Quick test_obs_parallel_counters;
          Alcotest.test_case "parallel spans" `Quick test_obs_parallel_spans;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs invariant" `Quick test_batch_jobs_invariant;
          Alcotest.test_case "golden at jobs=4" `Slow test_batch_golden_parallel;
          Alcotest.test_case "explicit conservative golden at jobs=1,4" `Slow
            test_batch_golden_explicit_conservative;
        ] );
    ]
