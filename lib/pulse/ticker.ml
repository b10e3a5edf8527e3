(* Periodic execution, shared by every polling surface of the pulse layer.

   Two shapes: [start] runs a callback on a background thread until
   [stop]ped — the Tsdb sampler, the in-process dashboard; [loop] runs a
   callback on the calling thread until it says stop — `xfd_cli top
   --connect` and `xfd trace stats --watch`.

   The background variant waits on a self-pipe with [Unix.select] rather
   than sleeping: OCaml's stdlib [Condition] has no timed wait, and a
   plain sleep would make [stop] block for up to a full interval.  Writing
   one byte to the pipe wakes the waiter immediately, so shutdown latency
   is bounded by one callback invocation, not by the interval. *)

type t = {
  thread : Thread.t;
  wake_w : Unix.file_descr; (* writing wakes the waiter: stop requested *)
  stopped : bool Atomic.t;
}

let min_interval = 0.001

let start ~interval f =
  let interval = Float.max min_interval interval in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let stopped = Atomic.make false in
  let rec run () =
    (* Tick first: the caller gets an immediate baseline sample, and a
       [stop] issued during the first interval still sees one tick. *)
    (try f () with _ -> ());
    if not (Atomic.get stopped) then begin
      (match Unix.select [ wake_r ] [] [] interval with
      | [], _, _ -> ()
      | _ :: _, _, _ -> ignore (Unix.read wake_r (Bytes.create 1) 0 1)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not (Atomic.get stopped) then run ()
    end
  in
  let thread = Thread.create run () in
  { thread; wake_w; stopped }

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1) with Unix.Unix_error _ -> ());
    Thread.join t.thread;
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end

let loop ~interval f =
  let interval = Float.max min_interval interval in
  let rec go tick =
    match f tick with
    | `Stop -> tick + 1
    | `Continue ->
      Unix.sleepf interval;
      go (tick + 1)
  in
  go 0
