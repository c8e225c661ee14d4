open Numeric

type var = int
type sense = Le | Ge | Eq
type direction = Maximize | Minimize

type var_info = {
  name : string;
  integer : bool;
  lb : Q.t option;
  ub : Q.t option;
}

type constr = { cname : string; expr : Linexpr.t; csense : sense; rhs : Q.t }

type t = {
  mutable vars : var_info list; (* reversed *)
  mutable nvars : int;
  mutable constrs : constr list; (* reversed *)
  mutable nconstrs : int;
  mutable obj_dir : direction;
  mutable obj : Linexpr.t;
  mutable vars_cache : var_info array option;
}

let create () =
  {
    vars = [];
    nvars = 0;
    constrs = [];
    nconstrs = 0;
    obj_dir = Maximize;
    obj = Linexpr.zero;
    vars_cache = None;
  }

let add_var_info m info =
  let v = m.nvars in
  m.vars <- info :: m.vars;
  m.nvars <- v + 1;
  m.vars_cache <- None;
  v

let add_var m ?(integer = false) ?(lb = Q.zero) ?ub name =
  add_var_info m { name; integer; lb = Some lb; ub }

let add_free_var m ?(integer = false) name =
  add_var_info m { name; integer; lb = None; ub = None }

(* Rebuilds the (reversed) info list with index [v] replaced. *)
let update_var_info m v f =
  if v < 0 || v >= m.nvars then invalid_arg "Model: unknown variable";
  let target = m.nvars - 1 - v (* position in the reversed list *) in
  m.vars <- List.mapi (fun i info -> if i = target then f info else info) m.vars;
  m.vars_cache <- None

let set_var_bounds m v ~lb ~ub = update_var_info m v (fun info -> { info with lb; ub })

let add_constraint m ?name expr csense rhs =
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.nconstrs
  in
  (* Fold the expression's constant into the right-hand side. *)
  let k = Linexpr.constant expr in
  let expr = Linexpr.add_const expr (Q.neg k) in
  let rhs = Q.sub rhs k in
  m.constrs <- { cname; expr; csense; rhs } :: m.constrs;
  m.nconstrs <- m.nconstrs + 1

let set_objective m dir e =
  m.obj_dir <- dir;
  m.obj <- e

let num_vars m = m.nvars

let vars_array m =
  match m.vars_cache with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev m.vars) in
    m.vars_cache <- Some a;
    a

let var_info m v =
  let a = vars_array m in
  if v < 0 || v >= Array.length a then invalid_arg "Model.var_info";
  a.(v)

let var_name m v = (var_info m v).name
let constraints m = List.rev m.constrs
let objective m = (m.obj_dir, m.obj)

let integer_vars m =
  let a = vars_array m in
  let acc = ref [] in
  for v = Array.length a - 1 downto 0 do
    if a.(v).integer then acc := v :: !acc
  done;
  !acc

let check_feasible ?(tol_integrality = true) m value =
  let errors = ref [] in
  let push e = errors := e :: !errors in
  Array.iteri
    (fun v info ->
       let x = value v in
       (match info.lb with
        | Some lb when Q.compare x lb < 0 ->
          push
            (Printf.sprintf "%s = %s below lower bound %s" info.name
               (Q.to_string x) (Q.to_string lb))
        | _ -> ());
       (match info.ub with
        | Some ub when Q.compare x ub > 0 ->
          push
            (Printf.sprintf "%s = %s above upper bound %s" info.name
               (Q.to_string x) (Q.to_string ub))
        | _ -> ());
       if tol_integrality && info.integer && not (Q.is_integer x) then
         push (Printf.sprintf "%s = %s not integral" info.name (Q.to_string x)))
    (vars_array m);
  List.iter
    (fun c ->
       let lhs = Linexpr.eval c.expr value in
       let ok =
         match c.csense with
         | Le -> Q.compare lhs c.rhs <= 0
         | Ge -> Q.compare lhs c.rhs >= 0
         | Eq -> Q.equal lhs c.rhs
       in
       if not ok then
         push
           (Printf.sprintf "constraint %s violated: lhs = %s, rhs = %s" c.cname
              (Q.to_string lhs) (Q.to_string c.rhs)))
    (constraints m);
  match !errors with
  | [] -> Ok "feasible"
  | es -> Error (String.concat "; " (List.rev es))

let canonical m =
  let b = Buffer.create 512 in
  let addq x = Buffer.add_string b (Q.to_string x) in
  let add_bound = function
    | None -> Buffer.add_char b '*'
    | Some x -> addq x
  in
  let add_terms e =
    List.iter
      (fun (v, c) ->
         Buffer.add_string b (string_of_int v);
         Buffer.add_char b ':';
         addq c;
         Buffer.add_char b ' ')
      (Linexpr.terms e);
    Buffer.add_char b '+';
    addq (Linexpr.constant e)
  in
  Array.iter
    (fun info ->
       Buffer.add_char b (if info.integer then 'i' else 'c');
       add_bound info.lb;
       Buffer.add_char b ',';
       add_bound info.ub;
       Buffer.add_char b ';')
    (vars_array m);
  Buffer.add_char b '|';
  List.iter
    (fun c ->
       add_terms c.expr;
       Buffer.add_string b
         (match c.csense with Le -> "<=" | Ge -> ">=" | Eq -> "=");
       addq c.rhs;
       Buffer.add_char b ';')
    (constraints m);
  Buffer.add_char b '|';
  Buffer.add_string b
    (match m.obj_dir with Maximize -> "max" | Minimize -> "min");
  add_terms m.obj;
  Buffer.contents b

let pp fmt m =
  let open Format in
  let names v = var_name m v in
  let dir, obj = objective m in
  fprintf fmt "@[<v>%s %a@,subject to:@,"
    (match dir with Maximize -> "maximize" | Minimize -> "minimize")
    (Linexpr.pp ~names) obj;
  List.iter
    (fun c ->
       fprintf fmt "  %s: %a %s %a@," c.cname (Linexpr.pp ~names) c.expr
         (match c.csense with Le -> "<=" | Ge -> ">=" | Eq -> "=")
         Q.pp c.rhs)
    (constraints m);
  fprintf fmt "vars:@,";
  Array.iteri
    (fun _ info ->
       fprintf fmt "  %s%s in [%s, %s]@," info.name
         (if info.integer then " (int)" else "")
         (match info.lb with Some l -> Q.to_string l | None -> "-inf")
         (match info.ub with Some u -> Q.to_string u | None -> "+inf"))
    (vars_array m);
  fprintf fmt "@]"
