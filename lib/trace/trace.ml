type t = { arena : Arena.t }

let create () = { arena = Arena.create () }
let arena t = t.arena

let append t ~kind ~loc =
  let ev = { Event.seq = Arena.length t.arena; kind; loc } in
  ignore (Arena.append t.arena ev);
  ev

let length t = Arena.length t.arena
let clear t = Arena.clear t.arena
let get t i = try Arena.get t.arena i with Invalid_argument _ -> invalid_arg "Trace.get: out of bounds"
let iter_range t ~from ~upto f = Arena.iter_range t.arena ~from ~upto f
let iter_prefix t n f = iter_range t ~from:0 ~upto:n f
let iter t f = iter_prefix t (length t) f

let to_list t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    acc := Arena.get t.arena i :: !acc
  done;
  !acc

type counts = {
  writes : int;
  reads : int;
  flushes : int;
  fences : int;
  tx_ops : int;
  annotations : int;
}

let counts t =
  let c = ref { writes = 0; reads = 0; flushes = 0; fences = 0; tx_ops = 0; annotations = 0 } in
  iter t (fun ev ->
      let x = !c in
      c :=
        (match ev.Event.kind with
        | Write _ | Nt_write _ -> { x with writes = x.writes + 1 }
        | Read _ -> { x with reads = x.reads + 1 }
        | Clwb _ | Clflush _ | Clflushopt _ -> { x with flushes = x.flushes + 1 }
        | Sfence | Mfence | Gpf -> { x with fences = x.fences + 1 }
        | Tx_begin | Tx_add _ | Tx_xadd _ | Tx_commit | Tx_abort | Tx_alloc _ | Tx_free _ ->
          { x with tx_ops = x.tx_ops + 1 }
        | Commit_var _ | Commit_range _ | Roi_begin | Roi_end | Skip_detection_begin
        | Skip_detection_end | Marker _ ->
          { x with annotations = x.annotations + 1 }));
  !c

let pp ppf t =
  iter t (fun ev -> Format.fprintf ppf "%a@." Event.pp ev)

let save t oc = iter t (fun ev -> output_string oc (Event.to_line ev ^ "\n"))

let load ic =
  let t = create () in
  let rec go n =
    match input_line ic with
    | exception End_of_file -> Ok t
    | line when String.trim line = "" -> go (n + 1)
    | line -> (
      match Event.of_line line with
      | Some ev ->
        ignore (append t ~kind:ev.Event.kind ~loc:ev.Event.loc);
        go (n + 1)
      | None -> Error (n, line))
  in
  go 1
