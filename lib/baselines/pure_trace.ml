module Trace = Xfd_trace.Trace

type result = { wall : float; pre_events : int; post_events : int }

let run program =
  let wall, pre, post = Xfd.Engine.run_once program in
  { wall; pre_events = Trace.length pre; post_events = Trace.length post }

let run_original = Xfd.Engine.run_original
