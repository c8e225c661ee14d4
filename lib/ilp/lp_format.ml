open Numeric

(* Exact decimal rendering: only denominators of the form 2^a * 5^b have
   one. *)
let decimal_of_q q =
  let num = Q.num q and den = Q.den q in
  if Bigint.equal den Bigint.one then Bigint.to_string num
  else begin
    let two = Bigint.of_int 2 and five = Bigint.of_int 5 and ten = Bigint.of_int 10 in
    let rec strip d base count =
      let quo, rem = Bigint.divmod d base in
      if Bigint.is_zero rem then strip quo base (count + 1) else (d, count)
    in
    let d1, twos = strip den two 0 in
    let rest, fives = strip d1 five 0 in
    if not (Bigint.equal rest Bigint.one) then
      invalid_arg
        (Printf.sprintf "Lp_format: %s has no finite decimal representation"
           (Q.to_string q));
    let k = max twos fives in
    let scale = Bigint.div (Bigint.pow ten k) den in
    let digits = Bigint.mul (Bigint.abs num) scale in
    let s = Bigint.to_string digits in
    let s = if String.length s <= k then String.make (k + 1 - String.length s) '0' ^ s else s in
    let cut = String.length s - k in
    let body = String.sub s 0 cut ^ "." ^ String.sub s cut k in
    if Bigint.sign num < 0 then "-" ^ body else body
  end

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri (fun i c -> if not (is_name_char c) then Bytes.set b i '_') b;
  let s = Bytes.to_string b in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "x" ^ s else s

(* Unique sanitized names for all variables. *)
let emit_names model =
  let n = Model.num_vars model in
  let used = Hashtbl.create n in
  Array.init n (fun v ->
      let base = sanitize (Model.var_name model v) in
      let rec fresh candidate k =
        if Hashtbl.mem used candidate then fresh (Printf.sprintf "%s_%d" base k) (k + 1)
        else candidate
      in
      let name = fresh base 1 in
      Hashtbl.add used name ();
      name)

let pp_terms buf names expr =
  let first = ref true in
  List.iter
    (fun (v, c) ->
       let sign = Q.sign c in
       if !first then begin
         if sign < 0 then Buffer.add_string buf "- ";
         first := false
       end
       else Buffer.add_string buf (if sign < 0 then " - " else " + ");
       let c = Q.abs c in
       if not (Q.equal c Q.one) then begin
         Buffer.add_string buf (decimal_of_q c);
         Buffer.add_char buf ' '
       end;
       Buffer.add_string buf names.(v))
    (Linexpr.terms expr);
  let k = Linexpr.constant expr in
  if not (Q.is_zero k) then begin
    if !first then Buffer.add_string buf (decimal_of_q k)
    else begin
      Buffer.add_string buf (if Q.sign k < 0 then " - " else " + ");
      Buffer.add_string buf (decimal_of_q (Q.abs k))
    end;
    first := false
  end;
  if !first then Buffer.add_string buf "0"

let to_string model =
  let names = emit_names model in
  let buf = Buffer.create 1024 in
  let dir, obj = Model.objective model in
  Buffer.add_string buf
    (match dir with Model.Maximize -> "Maximize\n" | Model.Minimize -> "Minimize\n");
  Buffer.add_string buf " obj: ";
  pp_terms buf names obj;
  Buffer.add_string buf "\nSubject To\n";
  let cused = Hashtbl.create 16 in
  List.iter
    (fun (c : Model.constr) ->
       let base = sanitize c.Model.cname in
       let rec fresh candidate k =
         if Hashtbl.mem cused candidate then fresh (Printf.sprintf "%s_%d" base k) (k + 1)
         else candidate
       in
       let cname = fresh base 1 in
       Hashtbl.add cused cname ();
       Buffer.add_string buf (" " ^ cname ^ ": ");
       pp_terms buf names c.Model.expr;
       Buffer.add_string buf
         (match c.Model.csense with Model.Le -> " <= " | Model.Ge -> " >= " | Model.Eq -> " = ");
       Buffer.add_string buf (decimal_of_q c.Model.rhs);
       Buffer.add_char buf '\n')
    (Model.constraints model);
  Buffer.add_string buf "Bounds\n";
  for v = 0 to Model.num_vars model - 1 do
    let info = Model.var_info model v in
    let name = names.(v) in
    (match (info.Model.lb, info.Model.ub) with
     | Some l, Some u when Q.equal l u ->
       Buffer.add_string buf (Printf.sprintf " %s = %s\n" name (decimal_of_q l))
     | Some l, Some u ->
       Buffer.add_string buf
         (Printf.sprintf " %s <= %s <= %s\n" (decimal_of_q l) name (decimal_of_q u))
     | Some l, None ->
       if not (Q.is_zero l) then
         Buffer.add_string buf (Printf.sprintf " %s >= %s\n" name (decimal_of_q l))
     | None, Some u ->
       Buffer.add_string buf (Printf.sprintf " -inf <= %s <= %s\n" name (decimal_of_q u))
     | None, None -> Buffer.add_string buf (Printf.sprintf " %s free\n" name))
  done;
  let generals =
    List.filter (fun v -> (Model.var_info model v).Model.integer)
      (List.init (Model.num_vars model) Fun.id)
  in
  if generals <> [] then begin
    Buffer.add_string buf "Generals\n ";
    Buffer.add_string buf (String.concat " " (List.map (fun v -> names.(v)) generals));
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

(* The canonical representative has deterministic variable ("v0".."vN")
   and row ("c0".."cN") names, so structural twins — same program built
   in any variable/row order or row scaling — emit byte-identical text.
   That is what makes the output diffable across sweep points and
   suitable for golden files. *)
let to_canonical_string model = to_string (Canonical.model (Canonical.of_model model))
