type kind =
  | Write of { addr : Xfd_mem.Addr.t; size : int }
  | Read of { addr : Xfd_mem.Addr.t; size : int }
  | Nt_write of { addr : Xfd_mem.Addr.t; size : int }
  | Clwb of { addr : Xfd_mem.Addr.t }
  | Clflush of { addr : Xfd_mem.Addr.t }
  | Clflushopt of { addr : Xfd_mem.Addr.t }
  | Sfence
  | Mfence
  | Gpf
  | Tx_begin
  | Tx_add of { addr : Xfd_mem.Addr.t; size : int }
  | Tx_xadd of { addr : Xfd_mem.Addr.t; size : int }
  | Tx_commit
  | Tx_abort
  | Tx_alloc of { addr : Xfd_mem.Addr.t; size : int; zeroed : bool }
  | Tx_free of { addr : Xfd_mem.Addr.t }
  | Commit_var of { addr : Xfd_mem.Addr.t; size : int }
  | Commit_range of { var : Xfd_mem.Addr.t; addr : Xfd_mem.Addr.t; size : int }
  | Roi_begin
  | Roi_end
  | Skip_detection_begin
  | Skip_detection_end
  | Marker of string

type t = { seq : int; kind : kind; loc : Xfd_util.Loc.t }

let is_pm_operation = function
  | Write _ | Read _ | Nt_write _ | Clwb _ | Clflush _ | Clflushopt _ | Sfence | Mfence
  | Gpf | Tx_begin | Tx_add _ | Tx_xadd _ | Tx_commit | Tx_abort | Tx_alloc _
  | Tx_free _ ->
    true
  | Commit_var _ | Commit_range _ | Roi_begin | Roi_end | Skip_detection_begin
  | Skip_detection_end | Marker _ ->
    false

let is_flush = function Clwb _ | Clflush _ | Clflushopt _ -> true | _ -> false
let is_fence = function Sfence | Mfence -> true | _ -> false

let pp_kind ppf = function
  | Write { addr; size } -> Format.fprintf ppf "WRITE %a %d" Xfd_mem.Addr.pp addr size
  | Read { addr; size } -> Format.fprintf ppf "READ %a %d" Xfd_mem.Addr.pp addr size
  | Nt_write { addr; size } -> Format.fprintf ppf "NT_WRITE %a %d" Xfd_mem.Addr.pp addr size
  | Clwb { addr } -> Format.fprintf ppf "CLWB %a" Xfd_mem.Addr.pp addr
  | Clflush { addr } -> Format.fprintf ppf "CLFLUSH %a" Xfd_mem.Addr.pp addr
  | Clflushopt { addr } -> Format.fprintf ppf "CLFLUSHOPT %a" Xfd_mem.Addr.pp addr
  | Sfence -> Format.pp_print_string ppf "SFENCE"
  | Mfence -> Format.pp_print_string ppf "MFENCE"
  | Gpf -> Format.pp_print_string ppf "GPF"
  | Tx_begin -> Format.pp_print_string ppf "TX_BEGIN"
  | Tx_add { addr; size } -> Format.fprintf ppf "TX_ADD %a %d" Xfd_mem.Addr.pp addr size
  | Tx_xadd { addr; size } -> Format.fprintf ppf "TX_XADD %a %d" Xfd_mem.Addr.pp addr size
  | Tx_commit -> Format.pp_print_string ppf "TX_COMMIT"
  | Tx_abort -> Format.pp_print_string ppf "TX_ABORT"
  | Tx_alloc { addr; size; zeroed } ->
    Format.fprintf ppf "TX_ALLOC %a %d %s" Xfd_mem.Addr.pp addr size
      (if zeroed then "zeroed" else "raw")
  | Tx_free { addr } -> Format.fprintf ppf "TX_FREE %a" Xfd_mem.Addr.pp addr
  | Commit_var { addr; size } ->
    Format.fprintf ppf "COMMIT_VAR %a %d" Xfd_mem.Addr.pp addr size
  | Commit_range { var; addr; size } ->
    Format.fprintf ppf "COMMIT_RANGE %a %a %d" Xfd_mem.Addr.pp var Xfd_mem.Addr.pp addr size
  | Roi_begin -> Format.pp_print_string ppf "ROI_BEGIN"
  | Roi_end -> Format.pp_print_string ppf "ROI_END"
  | Skip_detection_begin -> Format.pp_print_string ppf "SKIP_DETECTION_BEGIN"
  | Skip_detection_end -> Format.pp_print_string ppf "SKIP_DETECTION_END"
  | Marker s -> Format.fprintf ppf "MARKER %s" s

let pp ppf { seq; kind; loc } =
  Format.fprintf ppf "[%6d] %a @@ %a" seq pp_kind kind Xfd_util.Loc.pp loc

(* Free-form text (marker bodies, file names) travels inside a line format
   framed by '|' and, within the kind field, split on spaces — so those
   characters (and the line terminator itself) are escaped on write and
   restored on read.  Legacy traces contain no backslashes, so they decode
   unchanged. *)
let escape_field s =
  if
    String.for_all
      (fun c -> c <> '\\' && c <> '|' && c <> ' ' && c <> '\n' && c <> '\r')
      s
  then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '|' -> Buffer.add_string b "\\p"
        | ' ' -> Buffer.add_string b "\\s"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape_field s =
  if not (String.contains s '\\') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '\\' && !i + 1 < n then begin
         (match s.[!i + 1] with
         | '\\' -> Buffer.add_char b '\\'
         | 'p' -> Buffer.add_char b '|'
         | 's' -> Buffer.add_char b ' '
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
         incr i
       end
       else Buffer.add_char b s.[!i]);
      incr i
    done;
    Buffer.contents b
  end

let to_line { seq; kind; loc } =
  let kind_str =
    match kind with
    | Marker s -> "MARKER " ^ escape_field s
    | kind -> Format.asprintf "%a" pp_kind kind
  in
  Format.sprintf "%d|%s|%s|%d" seq kind_str
    (escape_field loc.Xfd_util.Loc.file)
    loc.Xfd_util.Loc.line

let parse_line line =
  match String.split_on_char '|' line with
  | [ seq; kind_str; file; lnum ] -> begin
    let loc = Xfd_util.Loc.make ~file:(unescape_field file) ~line:(int_of_string lnum) in
    let seq = int_of_string seq in
    let words = String.split_on_char ' ' kind_str in
    let addr s = int_of_string s in
    let kind =
      match words with
      | [ "WRITE"; a; n ] -> Some (Write { addr = addr a; size = int_of_string n })
      | [ "READ"; a; n ] -> Some (Read { addr = addr a; size = int_of_string n })
      | [ "NT_WRITE"; a; n ] -> Some (Nt_write { addr = addr a; size = int_of_string n })
      | [ "CLWB"; a ] -> Some (Clwb { addr = addr a })
      | [ "CLFLUSH"; a ] -> Some (Clflush { addr = addr a })
      | [ "CLFLUSHOPT"; a ] -> Some (Clflushopt { addr = addr a })
      | [ "SFENCE" ] -> Some Sfence
      | [ "MFENCE" ] -> Some Mfence
      | [ "GPF" ] -> Some Gpf
      | [ "TX_BEGIN" ] -> Some Tx_begin
      | [ "TX_ADD"; a; n ] -> Some (Tx_add { addr = addr a; size = int_of_string n })
      | [ "TX_XADD"; a; n ] -> Some (Tx_xadd { addr = addr a; size = int_of_string n })
      | [ "TX_COMMIT" ] -> Some Tx_commit
      | [ "TX_ABORT" ] -> Some Tx_abort
      | [ "TX_ALLOC"; a; n; z ] ->
        Some (Tx_alloc { addr = addr a; size = int_of_string n; zeroed = z = "zeroed" })
      | [ "TX_FREE"; a ] -> Some (Tx_free { addr = addr a })
      | [ "COMMIT_VAR"; a; n ] ->
        Some (Commit_var { addr = addr a; size = int_of_string n })
      | [ "COMMIT_RANGE"; v; a; n ] ->
        Some (Commit_range { var = addr v; addr = addr a; size = int_of_string n })
      | [ "ROI_BEGIN" ] -> Some Roi_begin
      | [ "ROI_END" ] -> Some Roi_end
      | [ "SKIP_DETECTION_BEGIN" ] -> Some Skip_detection_begin
      | [ "SKIP_DETECTION_END" ] -> Some Skip_detection_end
      | "MARKER" :: rest -> Some (Marker (unescape_field (String.concat " " rest)))
      | _ -> None
    in
    Option.map (fun kind -> { seq; kind; loc }) kind
  end
  | _ -> None

let of_line line = try parse_line line with Failure _ -> None
