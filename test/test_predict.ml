(* Predictor-stack tests: the ridge solver's algebra (qcheck properties:
   exact recovery at lambda=0, monotone norm shrinkage in lambda), the
   feature extractor's bit-determinism across worker domains, predictor
   parsing with nearest-name suggestions, the Scaled stage's
   same-machine identity guarantee (the byte-identity keystone), and
   the learned correction's fit/apply/clamp behaviour. *)

module Predictor = Gpp_predict.Predictor
module Ridge = Gpp_predict.Ridge
module Features = Gpp_predict.Features
module Correction = Gpp_predict.Correction
module Pricing = Gpp_predict.Pricing
module Machine = Gpp_arch.Machine
module Link = Gpp_pcie.Link
module Model = Gpp_pcie.Model
module Grophecy = Gpp_core.Grophecy
module Projection = Gpp_core.Projection
module Analyzer = Gpp_dataflow.Analyzer

(* --- ridge solver (qcheck) ------------------------------------------- *)

let dot w x = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i wi -> wi *. x.(i)) w)

(* Design matrices that always include the d basis rows, so X'X is
   I + E'E: symmetric positive definite and well conditioned, and the
   lambda=0 system has the planted weights as its unique solution. *)
let ridge_case_gen =
  QCheck2.Gen.(
    int_range 2 5 >>= fun d ->
    int_range 2 6 >>= fun extra ->
    list_repeat d (float_range (-2.0) 2.0) >>= fun w ->
    list_repeat extra (list_repeat d (float_range (-1.0) 1.0)) >>= fun rows ->
    return (d, Array.of_list w, List.map Array.of_list rows))

let case_matrix (d, _w, rows) =
  List.init d (fun i -> Array.init d (fun j -> if i = j then 1.0 else 0.0)) @ rows

let prop_ridge_recovers_planted_weights =
  Helpers.qtest ~count:200 "ridge: lambda=0 recovers planted weights"
    ridge_case_gen
    (fun ((_, w, _) as case) ->
      let xs = case_matrix case in
      let ys = List.map (dot w) xs in
      let fitted = Ridge.fit ~lambda:0.0 ~xs ~ys () in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) fitted w)

let prop_ridge_shrinks_norm =
  Helpers.qtest ~count:200 "ridge: larger lambda never grows the weight norm"
    QCheck2.Gen.(pair ridge_case_gen (pair (float_range 0.0 2.0) (float_range 0.0 8.0)))
    (fun (((_, w, _) as case), (l1, l2)) ->
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      let xs = case_matrix case in
      let ys = List.map (dot w) xs in
      let n l = Ridge.norm (Ridge.fit ~lambda:l ~xs ~ys ()) in
      n hi <= n lo +. 1e-9)

let test_ridge_rejects_singular () =
  (* Two identical equations in two unknowns: no pivot at lambda=0. *)
  match Ridge.solve [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] [| 1.0; 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on a singular system"

(* --- feature extraction ---------------------------------------------- *)

let machine = Machine.argonne_node

let feature_inputs =
  lazy
    (let program = Gpp_workloads.Srad.program ~iterations:1 ~n:256 () in
     let kernels = Helpers.check_core "explore" (Projection.explore ~machine program) in
     let chars =
       List.map
         (fun (kp : Projection.kernel_projection) ->
           kp.Projection.candidate.Gpp_transform.Explore.characteristics)
         kernels
     in
     (program, Analyzer.analyze program, chars))

let extract_features () =
  let program, plan, chars = Lazy.force feature_inputs in
  Features.extract ~source:machine ~target:machine ~program ~plan ~kernels:chars

let test_feature_shape () =
  let v = extract_features () in
  Alcotest.(check int) "dim matches names" Features.dim (Array.length v);
  Alcotest.(check int) "names list length" Features.dim (List.length Features.names);
  Alcotest.(check (float 0.0)) "bias" 1.0 v.(0)

(* The Learned stage trains on worker domains in batch runs, so the
   extractor must be bit-deterministic whatever domain it runs on. *)
let test_feature_determinism_across_jobs () =
  let reference = extract_features () in
  List.iter
    (fun jobs ->
      let n = 16 in
      let results = Array.make n [||] in
      Gpp_engine.Pool.run ~jobs n (fun i -> results.(i) <- extract_features ());
      Array.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d sample=%d dim" jobs i)
            (Array.length reference) (Array.length r);
          Array.iteri
            (fun j v ->
              if Int64.bits_of_float v <> Int64.bits_of_float reference.(j) then
                Alcotest.failf "jobs=%d sample=%d: feature %d differs bitwise" jobs i j)
            r)
        results)
    [ 1; 4 ]

(* --- predictor parsing ----------------------------------------------- *)

let test_predictor_parse () =
  let p = Helpers.check_ok "scaled,learned" (Predictor.of_string "scaled,learned") in
  Alcotest.(check string) "name" "scaled,learned" (Predictor.name p);
  Alcotest.(check bool) "has scaled" true (Predictor.has_scaled p);
  Alcotest.(check bool) "has learned" true (Predictor.has_learned p);
  let a = Helpers.check_ok "ANALYTIC" (Predictor.of_string " ANALYTIC ") in
  Alcotest.(check bool) "case/space-insensitive analytic" true
    (Predictor.equal a Predictor.analytic)

let test_predictor_parse_errors () =
  let dup = Helpers.check_error "duplicate" (Predictor.of_string "scaled,scaled") in
  Helpers.check_contains "duplicate message" ~needle:"duplicate" dup;
  let comp = Helpers.check_error "composed analytic" (Predictor.of_string "analytic,scaled") in
  Helpers.check_contains "composition message" ~needle:"identity base" comp;
  let unk = Helpers.check_error "unknown" (Predictor.of_string "sclaed") in
  Helpers.check_contains "suggestion" ~needle:{|did you mean "scaled"|} unk

let test_levenshtein () =
  Alcotest.(check int) "kitten/sitting" 3 (Gpp_util.Levenshtein.distance "kitten" "sitting");
  Alcotest.(check int) "identity" 0 (Gpp_util.Levenshtein.distance "abc" "abc");
  Alcotest.(check (option string))
    "nearest" (Some "scaled")
    (Gpp_util.Levenshtein.nearest ~candidates:[ "analytic"; "scaled"; "learned" ] "scald");
  Alcotest.(check (option string))
    "empty candidates" None
    (Gpp_util.Levenshtein.nearest ~candidates:[] "x")

(* --- pricing --------------------------------------------------------- *)

let catalog_machine id =
  match List.find_opt (fun (m : Machine.t) -> m.Machine.id = id) Machine.catalog with
  | Some m -> m
  | None -> Alcotest.failf "machine %s not in catalog" id

(* The byte-identity keystone: with source = target the Scaled stage
   must hand back the calibrated models *physically* unchanged, so the
   default pipeline cannot drift by even one ulp. *)
let test_scaled_same_machine_identity () =
  let s = Grophecy.init machine in
  let scaled = Helpers.check_ok "scaled" (Predictor.of_string "scaled") in
  let p =
    Pricing.make ~predictor:scaled ~source:machine ~target:machine ~h2d:s.Grophecy.h2d
      ~d2h:s.Grophecy.d2h ()
  in
  Alcotest.(check bool) "h2d physically unchanged" true (p.Pricing.h2d == s.Grophecy.h2d);
  Alcotest.(check bool) "d2h physically unchanged" true (p.Pricing.d2h == s.Grophecy.d2h);
  Alcotest.(check bool) "no correction" true (p.Pricing.correction = None)

let test_analytic_cross_machine_identity () =
  let s = Grophecy.init machine in
  let target = catalog_machine "dgx-a100" in
  let p =
    Pricing.make ~predictor:Predictor.analytic ~source:machine ~target ~h2d:s.Grophecy.h2d
      ~d2h:s.Grophecy.d2h ()
  in
  (* Analytic carries the source models verbatim, only the target
     machine changes. *)
  Alcotest.(check bool) "models unchanged" true
    (p.Pricing.h2d == s.Grophecy.h2d && p.Pricing.d2h == s.Grophecy.d2h);
  Alcotest.(check string) "machine is target" "dgx-a100" (Pricing.machine p).Machine.id

let test_scaled_beats_naive_cross () =
  let source = machine in
  let target = catalog_machine "dgx-a100" in
  let ssess = Grophecy.init source in
  let tsess = Grophecy.init target in
  let memory = Link.memory_of_staging target.Machine.staging in
  let truth direction ~bytes =
    Link.expected_time tsess.Grophecy.calibration_link direction memory ~bytes
  in
  let mk predictor =
    Pricing.make ~predictor ~source ~target ~h2d:ssess.Grophecy.h2d ~d2h:ssess.Grophecy.d2h ()
  in
  let scaled = mk (Helpers.check_ok "scaled" (Predictor.of_string "scaled")) in
  let naive = mk Predictor.analytic in
  let mib = Gpp_util.Units.mib in
  let err pricing direction =
    List.fold_left
      (fun acc bytes ->
        let t = truth direction ~bytes in
        acc +. (Float.abs (Pricing.predict pricing direction ~bytes -. t) /. t))
      0.0
      [ mib; 4 * mib; 16 * mib; 64 * mib ]
  in
  List.iter
    (fun direction ->
      let s = err scaled direction and n = err naive direction in
      if s >= n then
        Alcotest.failf "scaled (%.3f) should beat naive (%.3f) on a PCIe1->PCIe4 pair" s n)
    [ Link.Host_to_device; Link.Device_to_host ]

(* --- learned correction ---------------------------------------------- *)

let test_correction_fit_apply () =
  (* Constant measured/projected ratio 1.5 with a near-zero lambda: the
     fitted multiplier must reproduce it on the training points. *)
  let samples =
    [ ([| 1.0; 0.5 |], 1.5); ([| 1.0; 1.0 |], 1.5); ([| 1.0; 2.0 |], 1.5) ]
  in
  let c = Helpers.check_ok "fit" (Correction.fit ~lambda:1e-9 samples) in
  List.iter
    (fun (features, _) ->
      Helpers.close_rel ~tolerance:0.02 "multiplier" 1.5 (Correction.multiplier c ~features);
      Helpers.close_rel ~tolerance:0.02 "apply" 15.0 (Correction.apply c ~features ~base:10.0))
    samples

let test_correction_shrinks_to_identity () =
  let samples = [ ([| 1.0; 0.5 |], 1.5); ([| 1.0; 1.0 |], 1.5); ([| 1.0; 2.0 |], 1.5) ] in
  let c = Helpers.check_ok "fit" (Correction.fit ~lambda:1e9 samples) in
  (* An overwhelming lambda shrinks the correction toward the identity
     multiplier, never past it. *)
  List.iter
    (fun (features, _) ->
      Helpers.close_rel ~tolerance:0.01 "identity" 1.0 (Correction.multiplier c ~features))
    samples

let test_correction_clamps () =
  let high = [ ([| 1.0 |], 100.0); ([| 1.0 |], 100.0) ] in
  let c = Helpers.check_ok "fit high" (Correction.fit ~lambda:1e-9 high) in
  Alcotest.(check (float 1e-9)) "clamped high" Correction.max_multiplier
    (Correction.multiplier c ~features:[| 1.0 |]);
  let low = [ ([| 1.0 |], 0.001); ([| 1.0 |], 0.001) ] in
  let c = Helpers.check_ok "fit low" (Correction.fit ~lambda:1e-9 low) in
  Alcotest.(check (float 1e-9)) "clamped low" Correction.min_multiplier
    (Correction.multiplier c ~features:[| 1.0 |])

let test_correction_fit_errors () =
  (match Correction.fit [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty sample set must not fit");
  match Correction.fit [ ([| 1.0; 2.0 |], 1.1); ([| 1.0 |], 1.2) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ragged features must not fit"

let () =
  Alcotest.run "predict"
    [
      ( "ridge",
        [ Alcotest.test_case "singular rejected" `Quick test_ridge_rejects_singular ]
        @ [ prop_ridge_recovers_planted_weights; prop_ridge_shrinks_norm ] );
      ( "features",
        [
          Alcotest.test_case "shape" `Quick test_feature_shape;
          Alcotest.test_case "bit-deterministic across jobs" `Slow
            test_feature_determinism_across_jobs;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "parse" `Quick test_predictor_parse;
          Alcotest.test_case "parse errors" `Quick test_predictor_parse_errors;
          Alcotest.test_case "levenshtein" `Quick test_levenshtein;
        ] );
      ( "pricing",
        [
          Alcotest.test_case "scaled same-machine identity" `Quick
            test_scaled_same_machine_identity;
          Alcotest.test_case "analytic cross-machine identity" `Quick
            test_analytic_cross_machine_identity;
          Alcotest.test_case "scaled beats naive" `Quick test_scaled_beats_naive_cross;
        ] );
      ( "correction",
        [
          Alcotest.test_case "fit/apply" `Quick test_correction_fit_apply;
          Alcotest.test_case "shrinks to identity" `Quick test_correction_shrinks_to_identity;
          Alcotest.test_case "clamps" `Quick test_correction_clamps;
          Alcotest.test_case "fit errors" `Quick test_correction_fit_errors;
        ] );
    ]
