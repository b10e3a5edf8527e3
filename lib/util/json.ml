type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf ~indent ~level t =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char buf '\n' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
    Buffer.add_char buf '[';
    newline ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        write buf ~indent ~level:(level + 1) item)
      items;
    newline ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    newline ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf (if indent then "\": " else "\":");
        write buf ~indent ~level:(level + 1) v)
      fields;
    newline ();
    pad level;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf ~indent:false ~level:0 t;
  Buffer.contents buf

let to_string_pretty t =
  let buf = Buffer.create 256 in
  write buf ~indent:true ~level:0 t;
  Buffer.contents buf

let to_file path t =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string_pretty t);
      output_char oc '\n')

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Recursive-descent parser over a string with an explicit cursor. *)
type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  while
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      true
    | _ -> false
  do
    ()
  done

let expect p c =
  match peek p with
  | Some c' when Char.equal c c' -> advance p
  | Some c' -> parse_error "expected %C at offset %d, found %C" c p.pos c'
  | None -> parse_error "expected %C at offset %d, found end of input" c p.pos

let parse_literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.equal (String.sub p.src p.pos n) word then begin
    p.pos <- p.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" p.pos

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> parse_error "invalid hex digit %C" c

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> parse_error "unterminated string"
    | Some '"' -> advance p
    | Some '\\' ->
      advance p;
      (match peek p with
      | None -> parse_error "unterminated escape"
      | Some c ->
        advance p;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if p.pos + 4 > String.length p.src then parse_error "truncated \\u escape";
          let code =
            (hex_digit p.src.[p.pos] lsl 12)
            lor (hex_digit p.src.[p.pos + 1] lsl 8)
            lor (hex_digit p.src.[p.pos + 2] lsl 4)
            lor hex_digit p.src.[p.pos + 3]
          in
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (String.sub p.src (p.pos - 2) 6);
          p.pos <- p.pos + 4
        | c -> parse_error "invalid escape \\%C" c));
      go ()
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let consume () = advance p in
  (match peek p with Some '-' -> consume () | _ -> ());
  while (match peek p with Some '0' .. '9' -> true | _ -> false) do
    consume ()
  done;
  (match peek p with
  | Some '.' ->
    is_float := true;
    consume ();
    while (match peek p with Some '0' .. '9' -> true | _ -> false) do
      consume ()
    done
  | _ -> ());
  (match peek p with
  | Some ('e' | 'E') ->
    is_float := true;
    consume ();
    (match peek p with Some ('+' | '-') -> consume () | _ -> ());
    while (match peek p with Some '0' .. '9' -> true | _ -> false) do
      consume ()
    done
  | _ -> ());
  let text = String.sub p.src start (p.pos - start) in
  if String.equal text "" || String.equal text "-" then
    parse_error "invalid number at offset %d" start;
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> parse_error "unexpected end of input"
  | Some 'n' -> parse_literal p "null" Null
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some '"' -> Str (parse_string_body p)
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value p in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          items (v :: acc)
        | Some ']' ->
          advance p;
          List.rev (v :: acc)
        | _ -> parse_error "expected ',' or ']' at offset %d" p.pos
      in
      Arr (items [])
    end
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let field () =
        skip_ws p;
        let k = parse_string_body p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields (kv :: acc)
        | Some '}' ->
          advance p;
          List.rev (kv :: acc)
        | _ -> parse_error "expected ',' or '}' at offset %d" p.pos
      in
      Obj (fields [])
    end
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> parse_error "unexpected %C at offset %d" c p.pos

let of_string s =
  let p = { src = s; pos = 0 } in
  match
    let v = parse_value p in
    skip_ws p;
    if p.pos <> String.length s then parse_error "trailing garbage at offset %d" p.pos;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
