open Cmdliner
module Engine = Gpp_engine

(* grophecy serve — run the prediction pipeline as a long-lived HTTP
   service (see lib/serve).  The scenario resolves through the same
   layers as every pipeline command; --listen/--flush-every layer over
   GPP_LISTEN/GPP_FLUSH_EVERY and the config file's (serve ...) group.
   Blocks until SIGINT/SIGTERM, then flushes the cache tier and exits
   0. *)

let run scenario =
  match scenario with
  | Error e -> Cmd_common.fail e
  | Ok c -> (
      (* Sys.set_signal handlers cannot fire while every thread is
         parked in a blocking C call (accept, join), which is exactly
         this command's steady state — so take the sigwait route
         instead: mask the shutdown signals before the server spawns
         its threads (they inherit the mask) and park the main thread
         in Thread.wait_signal, where delivery is guaranteed. *)
      let signals = [ Sys.sigint; Sys.sigterm ] in
      let _prev = Thread.sigmask Unix.SIG_BLOCK signals in
      match Gpp_serve.Serve.start c with
      | Error e -> Cmd_common.fail e
      | Ok server ->
          Printf.printf "grophecy serve: listening on %s\n%!" (Gpp_serve.Serve.address server);
          let _signal = Thread.wait_signal signals in
          (* stop flushes the persistent tier; the at_exit chain (trace
             sink, logs) then runs on the normal return path. *)
          Gpp_serve.Serve.stop server;
          0)

let cmd =
  let doc = "Serve projections, batches, and experiments over HTTP (long-running)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Binds $(b,--listen) (default $(b,127.0.0.1:8080); also $(b,GPP_LISTEN) or the config \
         file's $(b,(serve (listen ...))) key; $(b,unix:PATH) for a Unix-domain socket; port \
         $(b,0) picks a free port) and answers:";
      `P "$(b,GET /healthz) — liveness JSON."; `Noblank;
      `P "$(b,GET /metrics) — observability counters and cache statistics."; `Noblank;
      `P "$(b,GET /experiments) — available experiment ids."; `Noblank;
      `P "$(b,GET /experiment/)$(i,ID) — byte-identical to $(b,grophecy experiment) $(i,ID)."; `Noblank;
      `P
        "$(b,GET /batch?machines=..&workloads=..&iterations=..) — byte-identical to the \
         $(b,grophecy batch) TSV.";
      `Noblank;
      `P
        "$(b,GET /project?workload=)$(i,APP/SIZE) (or POST with a JSON body) — byte-identical \
         to $(b,grophecy project).";
      `P
        "Responses are memoized (and persisted with the projection cache) keyed by the request \
         and the scenario; identical concurrent requests coalesce onto one computation.  The \
         cache tier is flushed every $(b,--flush-every) requests (also $(b,GPP_FLUSH_EVERY)), \
         so killing the server loses at most that many requests' worth of memoized work.";
    ]
  in
  let listen =
    Cmd_common.setting_opt "serve.listen" ~docv:"ADDR"
      ~doc:
        "Bind address: $(b,HOST:PORT) (port $(b,0) = pick a free one) or $(b,unix:PATH).  Also \
         $(b,GPP_LISTEN); default $(b,127.0.0.1:8080)."
  in
  let flush_every =
    Cmd_common.setting_opt "serve.flush-every" ~docv:"N"
      ~doc:
        "Flush the persistent cache tier every $(docv) requests (also $(b,GPP_FLUSH_EVERY); \
         default 64)."
  in
  let jobs =
    Cmd_common.setting_opt "jobs" ~aliases:[ "j" ] ~docv:"N"
      ~doc:"Worker domains for /batch requests (also $(b,GPP_JOBS); default 1)."
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ Cmd_common.(scenario [ machine; seed; listen; flush_every; jobs; predict ]))
