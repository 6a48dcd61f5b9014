(* A minimal JSON value, printer and parser — enough for the linter's JSON
   reports and Chrome trace export without pulling in a JSON
   dependency.  Strings are escaped per RFC 8259; non-finite floats
   become [null] (JSON has no representation for them).

   Floats print in shortest round-trip form: try successively wider %g
   conversions until [float_of_string] recovers the exact value (17
   significant digits always suffice for a binary64).  The previous fixed
   "%.6g" silently lost precision on large op counts and epoch-like
   values, so a parse -> reprint cycle did not preserve them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest representation that parses back to the same binary64. *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf ~indent ~level v =
  let pad n = String.make (n * indent) ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (level + 1));
        write buf ~indent ~level:(level + 1) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad level);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (level + 1));
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        write buf ~indent ~level:(level + 1) item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad level);
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  write buf ~indent:2 ~level:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

(* {1 Parsing}

   A small recursive-descent parser, used by the round-trip tests and the
   schema validators; accepts exactly RFC 8259 JSON (with the usual
   permissive whitespace). *)

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with _ -> fail "bad \\u escape"
           in
           (* Only the control-character escapes we emit need exactness;
              other code points round-trip as '?' placeholders. *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else Buffer.add_char buf '?'
         | _ -> fail "bad escape");
        go ()
      end
      else begin Buffer.add_char buf c; go () end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); List [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* {1 Accessors (for validators and tests)} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let as_list = function List l -> Some l | _ -> None
let as_string = function Str s -> Some s | _ -> None
let as_int = function Int i -> Some i | _ -> None
