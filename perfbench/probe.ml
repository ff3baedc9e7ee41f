(* The benchmark probe.  Runs one workload for about --seconds seconds
   and prints one raw JSON record as its last line; run.py builds this
   program, runs it and reduces the record to the reported metrics.

     probe.exe --workload paper-cold|zoo-crossval|serve-mix
               [--seed N] [--seconds S] [--trace 0|1] *)

let workloads =
  [
    ("paper-cold", Paper_cold.run);
    ("zoo-crossval", Zoo_crossval.run);
    ("serve-mix", Serve_mix.run);
  ]

let usage () =
  prerr_endline
    "usage: probe.exe --workload (paper-cold|zoo-crossval|serve-mix) [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

let () =
  let workload = ref None and seed = ref Gpp_engine.Config.default.seed in
  let seconds = ref 10. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest ->
        (match Int64.of_string_opt s with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some x when x > 0. -> seconds := x | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match Option.bind !workload (fun w -> Option.map (fun run -> (w, run)) (List.assoc_opt w workloads)) with
  | None -> usage ()
  | Some (name, run) ->
      Gpp_engine.Runtime.ignore_sigpipe ();
      let result = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
      print_endline (Common.to_json ~workload:name ~trace:!trace result)
