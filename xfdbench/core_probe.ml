(* Prints how many times slower than nominal its core runs, every 50 ms,
   until killed.  A serve run starts it pinned to the daemon's core. *)

let () = Xfdbench.Host.probe_forever ()
