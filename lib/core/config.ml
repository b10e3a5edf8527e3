type t = {
  strategy : Xfd_sim.Ctx.strategy;
  trust_library : bool;
  max_failure_points : int;
  inject_terminal_fp : bool;
  faults : Xfd_sim.Faults.t;
  check_perf : bool;
  crash_mode : [ `Full | `Strict ];
  forensics : bool;
  engine : [ `Incremental | `Fresh ];
  domain : Xfd_trace.Domain_model.t;
}

let default =
  {
    strategy = Xfd_sim.Ctx.Ordering_points;
    trust_library = true;
    max_failure_points = 100_000;
    inject_terminal_fp = true;
    faults = Xfd_sim.Faults.none;
    check_perf = true;
    crash_mode = `Full;
    forensics = false;
    engine = `Incremental;
    domain = Xfd_trace.Domain_model.Adr;
  }

let validate t =
  if t.max_failure_points <= 0 then
    invalid_arg
      (Printf.sprintf
         "Config.max_failure_points must be positive (got %d): a non-positive cap would \
          silently elide every failure point"
         t.max_failure_points);
  match (t.crash_mode, t.domain) with
  | `Full, _ | `Strict, Xfd_trace.Domain_model.Adr -> ()
  | `Strict, (Xfd_trace.Domain_model.Eadr | Xfd_trace.Domain_model.Cxl_gpf) ->
    invalid_arg
      (Printf.sprintf
         "Config.crash_mode `Strict requires the adr domain (got %s): a Strict image keeps \
          only flushed-and-fenced bytes and would drop bytes that domain makes durable"
         (Xfd_trace.Domain_model.to_string t.domain))
