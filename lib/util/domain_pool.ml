type state = Queued | Running | Done

(* One helper's enlistment in one batch. *)
type task = {
  work : unit -> unit;
  mutable state : state;
  mutable failed : (exn * Printexc.raw_backtrace) option;
}

let cap = max 0 (Domain.recommended_domain_count () - 1)

(* One mutex guards the queue, every task's state and the spawn count.
   Helpers park on [queued]; callers wait on [finished] for the tasks
   they enlisted that are running. *)
let mu = Mutex.create ()
let queued = Condition.create ()
let finished = Condition.create ()
let tasks : task Queue.t = Queue.create ()
let spawned = ref 0

let rec helper () =
  Mutex.lock mu;
  while Queue.is_empty tasks do
    Condition.wait queued mu
  done;
  let task = Queue.pop tasks in
  task.state <- Running;
  Mutex.unlock mu;
  let failed =
    match task.work () with () -> None | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock mu;
  task.failed <- failed;
  task.state <- Done;
  Condition.broadcast finished;
  Mutex.unlock mu;
  helper ()

let domains () = !spawned

(* Drop [mine] from the queue; called with [mu] held. *)
let withdraw mine =
  let others = Queue.create () in
  Queue.iter (fun t -> if not (List.memq t mine) then Queue.push t others) tasks;
  Queue.clear tasks;
  Queue.transfer others tasks

let run ~helpers work =
  let n = min helpers cap in
  if n <= 0 then begin
    work ();
    0
  end
  else begin
    let mine = List.init n (fun _ -> { work; state = Queued; failed = None }) in
    Mutex.lock mu;
    (try
       while !spawned < n do
         ignore (Domain.spawn helper : unit Domain.t);
         incr spawned
       done
     with Failure _ -> (* the runtime refused a domain: run on those there are *) ());
    List.iter (fun t -> Queue.push t tasks) mine;
    Condition.broadcast queued;
    Mutex.unlock mu;
    let own =
      match work () with () -> None | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock mu;
    withdraw mine;
    while List.exists (fun t -> t.state = Running) mine do
      Condition.wait finished mu
    done;
    Mutex.unlock mu;
    let ran = List.filter (fun t -> t.state = Done) mine in
    (match own with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> (
      match List.find_map (fun t -> t.failed) ran with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()));
    List.length ran
  end
