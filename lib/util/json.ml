(* The reader used to live inside Event_log; it is shared here so the
   status snapshots and run manifests can parse their own documents
   without growing a dependency.  Recursive descent over a string with
   one mutable cursor — the documents involved are lines to a few
   hundred KB, never streamed. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_err of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let bad fmt = Printf.ksprintf (fun m -> raise (Parse_err m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> incr pos
    | Some x -> bad "expected %C at %d, got %C" c !pos x
    | None -> bad "expected %C at %d, got end of input" c !pos
  in
  let literal word v =
    String.iter expect word;
    v
  in
  (* exactly four hex digits after a [\u]; [at] is the escape's position *)
  let hex4 at =
    if !pos + 4 > n then bad "bad \\u escape at %d" at;
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> bad "bad \\u escape at %d" at
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  (* one code point: a BMP escape, or a high surrogate escape joined with
     the low surrogate escape that must follow it *)
  let code_point at =
    let hi = hex4 at in
    if hi >= 0xDC00 && hi <= 0xDFFF then bad "bad \\u escape at %d" at
    else if hi < 0xD800 || hi > 0xDBFF then hi
    else if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 at in
      if lo < 0xDC00 || lo > 0xDFFF then bad "bad \\u escape at %d" at;
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else bad "bad \\u escape at %d" at
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> bad "unterminated string at %d" !pos
      | Some '"' ->
        incr pos;
        closed := true
      | Some '\\' -> (
        incr pos;
        match peek () with
        | Some '"' -> incr pos; Buffer.add_char b '"'
        | Some '\\' -> incr pos; Buffer.add_char b '\\'
        | Some '/' -> incr pos; Buffer.add_char b '/'
        | Some 'b' -> incr pos; Buffer.add_char b '\b'
        | Some 'f' -> incr pos; Buffer.add_char b '\012'
        | Some 'n' -> incr pos; Buffer.add_char b '\n'
        | Some 'r' -> incr pos; Buffer.add_char b '\r'
        | Some 't' -> incr pos; Buffer.add_char b '\t'
        | Some 'u' ->
          let at = !pos - 1 in
          incr pos;
          Buffer.add_utf_8_uchar b (Uchar.of_int (code_point at))
        | _ -> bad "bad escape at %d" !pos)
      | Some c ->
        incr pos;
        Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> bad "bad number at %d" start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let continue = ref true in
        while !continue do
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some '}' ->
            incr pos;
            continue := false
          | _ -> bad "expected ',' or '}' at %d" !pos
        done;
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [] in
        let continue = ref true in
        while !continue do
          items := value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some ']' ->
            incr pos;
            continue := false
          | _ -> bad "expected ',' or ']' at %d" !pos
        done;
        Arr (List.rev !items)
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | Some c -> bad "unexpected %C at %d" c !pos
    | None -> bad "unexpected end of input at %d" !pos
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then bad "trailing garbage at %d" !pos;
  v

let parse s =
  match parse_exn s with v -> Ok v | exception Parse_err m -> Error m

(* -- accessors ------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Some (int_of_float f)
  | _ -> None

(* -- the writer ------------------------------------------------------------ *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

(* 15 digits print 0.1 as 0.1 and integers as integers; 17 digits are
   needed only where 15 do not read back as the same float *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let int n = Num (float_of_int n)

let rec to_buffer b v =
  let str s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let sep i = if i > 0 then Buffer.add_string b ", " in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number f)
  | Str s -> str s
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        sep i;
        to_buffer b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        sep i;
        str k;
        Buffer.add_string b ": ";
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b
