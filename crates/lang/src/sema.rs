//! Semantic analysis: type checking, name resolution, and frame layout.
//!
//! The layout rules matter for paper fidelity: block locals are assigned
//! stack slots in declaration order, so changing `char phrase[80]` to
//! `char phrase[81]` shifts the frame offsets of every later variable —
//! exactly the machine-level footprint of the JB.team6 assignment fault the
//! paper analyses in its Figure 4.

use std::collections::HashMap;

use crate::ast::*;
use crate::lexer::CompileError;

/// A resolved MiniC type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// 32-bit signed integer.
    Int,
    /// 8-bit unsigned character.
    Char,
    /// No value.
    Void,
    /// Pointer; `Ptr(Void)` is the type of `malloc` results and is
    /// assignable to and from any pointer.
    Ptr(Box<Type>),
    /// Fixed-size array.
    Array(Box<Type>, usize),
    /// Struct by index into [`SemaOutput::structs`].
    Struct(usize),
}

impl Type {
    /// Size in bytes given the struct table.
    ///
    /// # Panics
    ///
    /// Panics if the size does not fit in `u32`; semantic analysis
    /// rejects every such type where it is declared.
    pub fn size(&self, structs: &[StructLayout]) -> u32 {
        self.checked_size(structs)
            .expect("type sizes are checked where types are resolved")
    }

    /// Size in bytes given the struct table, or `None` if it does not
    /// fit in `u32`.
    pub fn checked_size(&self, structs: &[StructLayout]) -> Option<u32> {
        match self {
            Type::Int | Type::Ptr(_) => Some(4),
            Type::Char => Some(1),
            Type::Void => Some(0),
            Type::Array(t, n) => t
                .checked_size(structs)?
                .checked_mul(u32::try_from(*n).ok()?),
            Type::Struct(i) => Some(structs[*i].size),
        }
    }

    /// Alignment in bytes.
    pub fn align(&self, structs: &[StructLayout]) -> u32 {
        match self {
            Type::Int | Type::Ptr(_) => 4,
            Type::Char => 1,
            Type::Void => 1,
            Type::Array(t, _) => t.align(structs),
            Type::Struct(i) => structs[*i].align,
        }
    }

    /// Whether the type is usable in arithmetic/conditions.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Int | Type::Char | Type::Ptr(_))
    }

    /// Whether the type is `int` or `char`.
    pub fn is_arith(&self) -> bool {
        matches!(self, Type::Int | Type::Char)
    }

    /// Array-to-pointer decay; other types unchanged.
    pub fn decay(&self) -> Type {
        match self {
            Type::Array(t, _) => Type::Ptr(t.clone()),
            other => other.clone(),
        }
    }
}

/// A struct's computed layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Struct tag.
    pub name: String,
    /// Fields with byte offsets.
    pub fields: Vec<FieldLayout>,
    /// Total size (padded to alignment).
    pub size: u32,
    /// Alignment.
    pub align: u32,
}

/// One field of a [`StructLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset within the struct.
    pub offset: u32,
}

/// Resolution of a variable reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarRef {
    /// A stack-frame local; `offset` is relative to the start of the
    /// function's locals area.
    Local {
        /// Byte offset within the locals area.
        offset: u32,
        /// Variable type.
        ty: Type,
    },
    /// A global; index into [`SemaOutput::globals`].
    Global(usize),
}

/// Layout of one global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalLayout {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub ty: Type,
}

/// Per-function layout and signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnLayout {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameter types (also the first locals).
    pub params: Vec<Type>,
    /// Total bytes of the locals area (8-byte aligned).
    pub locals_size: u32,
    /// Offsets (within the locals area) of the parameter slots.
    pub param_offsets: Vec<u32>,
    /// All local slots, in declaration order (params first), as
    /// `(name, type, offset)` — consumed by debug info and by the
    /// stack-shift analysis of assignment faults.
    pub slots: Vec<(String, Type, u32)>,
}

/// Output of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct SemaOutput {
    /// Type of every expression, keyed by `Expr::id`.
    pub expr_types: HashMap<usize, Type>,
    /// Resolution of every `ExprKind::Var`, keyed by `Expr::id`.
    pub var_refs: HashMap<usize, VarRef>,
    /// Struct layouts (indexed by `Type::Struct`).
    pub structs: Vec<StructLayout>,
    /// Global layouts, in declaration order.
    pub globals: Vec<GlobalLayout>,
    /// Function layouts, parallel to `Program::functions`.
    pub functions: Vec<FnLayout>,
    /// For declaration initializers: the declared slot, keyed by the
    /// *initializer expression's* id (names alone are ambiguous under
    /// shadowing).
    pub decl_slots: HashMap<usize, (u32, Type)>,
}

/// Builtin functions provided by the VM runtime.
///
/// `(name, param types, return type)`; `malloc` returns `Ptr(Void)`.
fn builtins() -> Vec<(&'static str, Vec<Type>, Type)> {
    vec![
        ("print_int", vec![Type::Int], Type::Void),
        ("print_char", vec![Type::Int], Type::Void),
        (
            "print_str",
            vec![Type::Ptr(Box::new(Type::Char))],
            Type::Void,
        ),
        ("read_int", vec![], Type::Int),
        ("read_byte", vec![], Type::Int),
        ("malloc", vec![Type::Int], Type::Ptr(Box::new(Type::Void))),
        ("free", vec![Type::Ptr(Box::new(Type::Void))], Type::Void),
        ("core_id", vec![], Type::Int),
        ("num_cores", vec![], Type::Int),
        ("barrier", vec![], Type::Void),
    ]
}

/// Whether `name` is a VM builtin.
pub fn is_builtin(name: &str) -> bool {
    builtins().iter().any(|(n, _, _)| *n == name)
}

struct Sema<'a> {
    prog: &'a Program,
    out: SemaOutput,
    struct_index: HashMap<String, usize>,
    global_index: HashMap<String, usize>,
    fn_sigs: HashMap<String, (Vec<Type>, Type)>,
    // Current function state.
    scopes: Vec<HashMap<String, (u32, Type)>>,
    next_offset: u32,
    slots: Vec<(String, Type, u32)>,
    ret: Type,
    loop_depth: u32,
}

/// Run semantic analysis over a parsed program.
///
/// # Errors
///
/// Returns [`CompileError`] for type errors, unresolved names, bad lvalues,
/// `break`/`continue` outside loops, and layout restrictions (array-typed
/// parameters, more than 8 parameters).
pub fn analyze(prog: &Program) -> Result<SemaOutput, CompileError> {
    let mut s = Sema {
        prog,
        out: SemaOutput::default(),
        struct_index: HashMap::new(),
        global_index: HashMap::new(),
        fn_sigs: HashMap::new(),
        scopes: Vec::new(),
        next_offset: 0,
        slots: Vec::new(),
        ret: Type::Void,
        loop_depth: 0,
    };
    s.structs()?;
    s.globals()?;
    s.signatures()?;
    for (i, f) in prog.functions.iter().enumerate() {
        s.function(i, f)?;
    }
    Ok(s.out)
}

/// The error for a `what` (type, struct or frame) whose size in bytes
/// does not fit in 32 bits.
fn too_large(line: u32, what: &str) -> CompileError {
    CompileError::new(
        line,
        format!("{what} too large: its size overflows 32 bits"),
    )
}

impl<'a> Sema<'a> {
    fn resolve_type(&self, te: &TypeExpr, line: u32) -> Result<Type, CompileError> {
        let mut t = match &te.base {
            BaseType::Int => Type::Int,
            BaseType::Char => Type::Char,
            BaseType::Void => Type::Void,
            BaseType::Struct(name) => match self.struct_index.get(name) {
                Some(&i) => Type::Struct(i),
                None => {
                    return Err(CompileError::new(line, format!("unknown struct `{name}`")));
                }
            },
        };
        for _ in 0..te.ptr_depth {
            t = Type::Ptr(Box::new(t));
        }
        for &d in te.dims.iter().rev() {
            t = Type::Array(Box::new(t), d);
        }
        if t.checked_size(&self.out.structs).is_none() {
            return Err(too_large(line, "type"));
        }
        Ok(t)
    }

    fn structs(&mut self) -> Result<(), CompileError> {
        for sd in &self.prog.structs {
            if self.struct_index.contains_key(&sd.name) {
                return Err(CompileError::new(
                    sd.line,
                    format!("duplicate struct `{}`", sd.name),
                ));
            }
            // Reserve the index first so pointer fields can refer to the
            // struct being defined (linked lists).
            let idx = self.out.structs.len();
            self.struct_index.insert(sd.name.clone(), idx);
            self.out.structs.push(StructLayout {
                name: sd.name.clone(),
                fields: Vec::new(),
                size: 0,
                align: 1,
            });
            let mut fields = Vec::new();
            let mut offset = 0u32;
            let mut align = 1u32;
            for (fname, fty) in &sd.fields {
                let ty = self.resolve_type(fty, sd.line)?;
                if let Type::Struct(i) = ty {
                    if i == idx {
                        return Err(CompileError::new(
                            sd.line,
                            "struct cannot contain itself by value (use a pointer)",
                        ));
                    }
                }
                if ty == Type::Void {
                    return Err(CompileError::new(sd.line, "field cannot have type void"));
                }
                let a = ty.align(&self.out.structs);
                let size = ty.size(&self.out.structs);
                offset = offset
                    .checked_next_multiple_of(a)
                    .ok_or_else(|| too_large(sd.line, "struct"))?;
                fields.push(FieldLayout {
                    name: fname.clone(),
                    ty,
                    offset,
                });
                offset = offset
                    .checked_add(size)
                    .ok_or_else(|| too_large(sd.line, "struct"))?;
                align = align.max(a);
            }
            let size = offset
                .checked_next_multiple_of(align)
                .ok_or_else(|| too_large(sd.line, "struct"))?;
            let entry = &mut self.out.structs[idx];
            entry.fields = fields;
            entry.size = size.max(1);
            entry.align = align;
        }
        Ok(())
    }

    fn globals(&mut self) -> Result<(), CompileError> {
        for g in &self.prog.globals {
            if self.global_index.contains_key(&g.name) {
                return Err(CompileError::new(
                    g.line,
                    format!("duplicate global `{}`", g.name),
                ));
            }
            let ty = self.resolve_type(&g.ty, g.line)?;
            if ty == Type::Void {
                return Err(CompileError::new(g.line, "variable cannot have type void"));
            }
            if let Some(init) = &g.init {
                match &init.kind {
                    ExprKind::IntLit(_) | ExprKind::CharLit(_) => {}
                    _ => {
                        return Err(CompileError::new(
                            g.line,
                            "global initializers must be integer or char literals",
                        ));
                    }
                }
                // Record the literal's type so codegen can look it up.
                let t = match &init.kind {
                    ExprKind::IntLit(_) => Type::Int,
                    _ => Type::Char,
                };
                self.out.expr_types.insert(init.id, t);
            }
            self.global_index
                .insert(g.name.clone(), self.out.globals.len());
            self.out.globals.push(GlobalLayout {
                name: g.name.clone(),
                ty,
            });
        }
        Ok(())
    }

    fn signatures(&mut self) -> Result<(), CompileError> {
        for (name, params, ret) in builtins() {
            self.fn_sigs.insert(name.to_string(), (params, ret));
        }
        for f in &self.prog.functions {
            if self.fn_sigs.contains_key(&f.name) {
                return Err(CompileError::new(
                    f.line,
                    format!("duplicate function (or builtin clash) `{}`", f.name),
                ));
            }
            if f.params.len() > 8 {
                return Err(CompileError::new(
                    f.line,
                    "at most 8 parameters are supported",
                ));
            }
            let ret = self.resolve_type(&f.ret, f.line)?;
            let mut params = Vec::new();
            for (pname, pty) in &f.params {
                if !pty.dims.is_empty() {
                    return Err(CompileError::new(
                        f.line,
                        format!("array-typed parameter `{pname}` not supported (pass a pointer)"),
                    ));
                }
                let t = self.resolve_type(pty, f.line)?;
                if !t.is_scalar() {
                    return Err(CompileError::new(
                        f.line,
                        format!("parameter `{pname}` must be scalar"),
                    ));
                }
                params.push(t);
            }
            self.fn_sigs.insert(f.name.clone(), (params, ret));
        }
        Ok(())
    }

    fn alloc_slot(&mut self, name: &str, ty: &Type, line: u32) -> Result<u32, CompileError> {
        if self.scopes.last().is_some_and(|s| s.contains_key(name)) {
            return Err(CompileError::new(
                line,
                format!("duplicate variable `{name}`"),
            ));
        }
        let a = ty.align(&self.out.structs);
        let size = ty.size(&self.out.structs);
        let off = self
            .next_offset
            .checked_next_multiple_of(a)
            .ok_or_else(|| too_large(line, "frame"))?;
        // Room for the frame's final 8-byte rounding too.
        self.next_offset = off
            .checked_add(size)
            .filter(|end| end.checked_next_multiple_of(8).is_some())
            .ok_or_else(|| too_large(line, "frame"))?;
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), (off, ty.clone()));
        self.slots.push((name.to_string(), ty.clone(), off));
        Ok(off)
    }

    fn lookup(&self, name: &str) -> Option<VarRef> {
        for scope in self.scopes.iter().rev() {
            if let Some((off, ty)) = scope.get(name) {
                return Some(VarRef::Local {
                    offset: *off,
                    ty: ty.clone(),
                });
            }
        }
        self.global_index.get(name).map(|&i| VarRef::Global(i))
    }

    fn function(&mut self, idx: usize, f: &'a Function) -> Result<(), CompileError> {
        let (params, ret) = self.fn_sigs[&f.name].clone();
        self.ret = ret.clone();
        self.scopes = vec![HashMap::new()];
        self.next_offset = 0;
        self.slots = Vec::new();
        self.loop_depth = 0;
        let mut param_offsets = Vec::new();
        for ((pname, _), pty) in f.params.iter().zip(&params) {
            param_offsets.push(self.alloc_slot(pname, pty, f.line)?);
        }
        self.block(&f.body)?;
        let locals_size = self.next_offset.next_multiple_of(8);
        debug_assert_eq!(self.out.functions.len(), idx);
        self.out.functions.push(FnLayout {
            name: f.name.clone(),
            ret,
            params,
            locals_size,
            param_offsets,
            slots: std::mem::take(&mut self.slots),
        });
        Ok(())
    }

    fn block(&mut self, b: &'a Block) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        for d in &b.decls {
            let ty = self.resolve_type(&d.ty, d.line)?;
            if ty == Type::Void {
                return Err(CompileError::new(d.line, "variable cannot have type void"));
            }
            let off = self.alloc_slot(&d.name, &ty, d.line)?;
            if let Some(init) = &d.init {
                let vt = self.expr(init)?;
                self.check_assignable(&ty, &vt, init, d.line)?;
                if matches!(ty, Type::Array(..) | Type::Struct(_)) {
                    return Err(CompileError::new(
                        d.line,
                        "array/struct variables cannot have initializers",
                    ));
                }
                self.out.decl_slots.insert(init.id, (off, ty.clone()));
            }
        }
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                let tt = self.lvalue(target)?;
                if matches!(tt, Type::Array(..) | Type::Struct(_)) {
                    return Err(CompileError::new(
                        *line,
                        "cannot assign to an array or whole struct",
                    ));
                }
                let vt = self.expr(value)?;
                self.check_assignable(&tt, &vt, value, *line)?;
            }
            Stmt::Expr { expr, line } => {
                if !matches!(expr.kind, ExprKind::Call { .. }) {
                    return Err(CompileError::new(
                        *line,
                        "expression statements must be function calls",
                    ));
                }
                self.expr(expr)?;
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                line,
            } => {
                let ct = self.expr(cond)?;
                if !ct.decay().is_scalar() {
                    return Err(CompileError::new(*line, "condition must be scalar"));
                }
                self.block(then_blk)?;
                if let Some(e) = else_blk {
                    self.block(e)?;
                }
            }
            Stmt::While { cond, body, line } => {
                let ct = self.expr(cond)?;
                if !ct.decay().is_scalar() {
                    return Err(CompileError::new(*line, "condition must be scalar"));
                }
                self.loop_depth += 1;
                self.block(body)?;
                self.loop_depth -= 1;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                if let Some(c) = cond {
                    let ct = self.expr(c)?;
                    if !ct.decay().is_scalar() {
                        return Err(CompileError::new(*line, "condition must be scalar"));
                    }
                }
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.loop_depth += 1;
                self.block(body)?;
                self.loop_depth -= 1;
            }
            Stmt::Return { value, line } => match (&self.ret, value) {
                (Type::Void, None) => {}
                (Type::Void, Some(_)) => {
                    return Err(CompileError::new(
                        *line,
                        "void function cannot return a value",
                    ));
                }
                (_, None) => {
                    return Err(CompileError::new(
                        *line,
                        "non-void function must return a value",
                    ));
                }
                (ret, Some(v)) => {
                    let ret = ret.clone();
                    let vt = self.expr(v)?;
                    self.check_assignable(&ret, &vt, v, *line)?;
                }
            },
            Stmt::Break { line } | Stmt::Continue { line } => {
                if self.loop_depth == 0 {
                    return Err(CompileError::new(*line, "break/continue outside a loop"));
                }
            }
            Stmt::Block(b) => self.block(b)?,
        }
        Ok(())
    }

    fn check_assignable(
        &self,
        dst: &Type,
        src: &Type,
        src_expr: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        let src = src.decay();
        let ok = match (dst, &src) {
            (Type::Int | Type::Char, s) if s.is_arith() => true,
            (Type::Ptr(a), Type::Ptr(b)) => a == b || **a == Type::Void || **b == Type::Void,
            (Type::Ptr(_), Type::Int) => matches!(src_expr.kind, ExprKind::IntLit(0)),
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(CompileError::new(
                line,
                format!("cannot assign `{src:?}` to `{dst:?}`"),
            ))
        }
    }

    /// Type-check an lvalue expression and return its type.
    fn lvalue(&mut self, e: &'a Expr) -> Result<Type, CompileError> {
        match &e.kind {
            ExprKind::Var(_) | ExprKind::Index { .. } | ExprKind::Field { .. } => self.expr(e),
            ExprKind::Unary {
                op: UnOp::Deref, ..
            } => self.expr(e),
            _ => Err(CompileError::new(e.line, "not an lvalue")),
        }
    }

    fn expr(&mut self, e: &'a Expr) -> Result<Type, CompileError> {
        let t = self.expr_inner(e)?;
        self.out.expr_types.insert(e.id, t.clone());
        Ok(t)
    }

    fn expr_inner(&mut self, e: &'a Expr) -> Result<Type, CompileError> {
        match &e.kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::CharLit(_) => Ok(Type::Char),
            ExprKind::StrLit(_) => Ok(Type::Ptr(Box::new(Type::Char))),
            ExprKind::Var(name) => match self.lookup(name) {
                Some(r) => {
                    let t = match &r {
                        VarRef::Local { ty, .. } => ty.clone(),
                        VarRef::Global(i) => self.out.globals[*i].ty.clone(),
                    };
                    self.out.var_refs.insert(e.id, r);
                    Ok(t)
                }
                None => Err(CompileError::new(
                    e.line,
                    format!("unknown variable `{name}`"),
                )),
            },
            ExprKind::Index { base, index } => {
                let bt = self.expr(base)?;
                let it = self.expr(index)?;
                if !it.is_arith() {
                    return Err(CompileError::new(e.line, "array index must be arithmetic"));
                }
                match bt {
                    Type::Array(t, _) => Ok(*t),
                    Type::Ptr(t) if *t != Type::Void => Ok(*t),
                    other => Err(CompileError::new(
                        e.line,
                        format!("cannot index into `{other:?}`"),
                    )),
                }
            }
            ExprKind::Field { base, field, arrow } => {
                let bt = self.expr(base)?;
                let sidx = match (&bt, arrow) {
                    (Type::Struct(i), false) => *i,
                    (Type::Ptr(p), true) => match **p {
                        Type::Struct(i) => i,
                        _ => {
                            return Err(CompileError::new(e.line, "`->` needs a struct pointer"));
                        }
                    },
                    _ => {
                        return Err(CompileError::new(
                            e.line,
                            format!("bad member access on `{bt:?}`"),
                        ));
                    }
                };
                match self.out.structs[sidx]
                    .fields
                    .iter()
                    .find(|f| &f.name == field)
                {
                    Some(f) => Ok(f.ty.clone()),
                    None => Err(CompileError::new(
                        e.line,
                        format!(
                            "struct `{}` has no field `{field}`",
                            self.out.structs[sidx].name
                        ),
                    )),
                }
            }
            ExprKind::Unary { op, operand } => {
                let ot = self.expr(operand)?;
                match op {
                    UnOp::Neg => {
                        if ot.is_arith() {
                            Ok(Type::Int)
                        } else {
                            Err(CompileError::new(
                                e.line,
                                "cannot negate a non-arithmetic value",
                            ))
                        }
                    }
                    UnOp::Not => {
                        if ot.decay().is_scalar() {
                            Ok(Type::Int)
                        } else {
                            Err(CompileError::new(e.line, "`!` needs a scalar"))
                        }
                    }
                    UnOp::Deref => match ot.decay() {
                        Type::Ptr(t) if *t != Type::Void => Ok(*t),
                        other => Err(CompileError::new(
                            e.line,
                            format!("cannot dereference `{other:?}`"),
                        )),
                    },
                    UnOp::Addr => {
                        match operand.kind {
                            ExprKind::Var(_)
                            | ExprKind::Index { .. }
                            | ExprKind::Field { .. }
                            | ExprKind::Unary {
                                op: UnOp::Deref, ..
                            } => {}
                            _ => {
                                return Err(CompileError::new(e.line, "`&` needs an lvalue"));
                            }
                        }
                        Ok(Type::Ptr(Box::new(ot)))
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr(lhs)?.decay();
                let rt = self.expr(rhs)?.decay();
                if op.is_comparison() {
                    let compatible = (lt.is_arith() && rt.is_arith())
                        || (matches!(lt, Type::Ptr(_))
                            && (rt == lt
                                || matches!(rhs.kind, ExprKind::IntLit(0))
                                || matches!(rt, Type::Ptr(ref p) if **p == Type::Void)))
                        || (matches!(rt, Type::Ptr(_)) && matches!(lhs.kind, ExprKind::IntLit(0)));
                    if compatible {
                        Ok(Type::Int)
                    } else {
                        Err(CompileError::new(
                            e.line,
                            format!("cannot compare `{lt:?}` and `{rt:?}`"),
                        ))
                    }
                } else if op.is_logical() {
                    if lt.is_scalar() && rt.is_scalar() {
                        Ok(Type::Int)
                    } else {
                        Err(CompileError::new(e.line, "logical operands must be scalar"))
                    }
                } else {
                    // Arithmetic / bitwise, plus ptr ± int.
                    match (op, &lt, &rt) {
                        (BinOp::Add | BinOp::Sub, Type::Ptr(p), r)
                            if r.is_arith() && **p != Type::Void =>
                        {
                            Ok(lt.clone())
                        }
                        (BinOp::Add, l, Type::Ptr(p)) if l.is_arith() && **p != Type::Void => {
                            Ok(rt.clone())
                        }
                        _ if lt.is_arith() && rt.is_arith() => Ok(Type::Int),
                        _ => Err(CompileError::new(
                            e.line,
                            format!("bad operands `{lt:?}` {op:?} `{rt:?}`"),
                        )),
                    }
                }
            }
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let ct = self.expr(cond)?;
                if !ct.decay().is_scalar() {
                    return Err(CompileError::new(
                        e.line,
                        "ternary condition must be scalar",
                    ));
                }
                let tt = self.expr(then_e)?.decay();
                let et = self.expr(else_e)?.decay();
                if tt.is_arith() && et.is_arith() {
                    Ok(Type::Int)
                } else if tt == et {
                    Ok(tt)
                } else {
                    Err(CompileError::new(
                        e.line,
                        "ternary branches have different types",
                    ))
                }
            }
            ExprKind::Call { name, args } => {
                let (params, ret) = match self.fn_sigs.get(name) {
                    Some(sig) => sig.clone(),
                    None => {
                        return Err(CompileError::new(
                            e.line,
                            format!("unknown function `{name}`"),
                        ));
                    }
                };
                if args.len() != params.len() {
                    return Err(CompileError::new(
                        e.line,
                        format!(
                            "`{name}` expects {} arguments, got {}",
                            params.len(),
                            args.len()
                        ),
                    ));
                }
                for (a, p) in args.iter().zip(&params) {
                    let at = self.expr(a)?;
                    self.check_assignable(p, &at, a, e.line)?;
                }
                Ok(ret)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ok(src: &str) -> SemaOutput {
        analyze(&parse(src).unwrap()).unwrap()
    }

    fn fails(src: &str) -> CompileError {
        analyze(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn basic_program_checks() {
        let out = ok("int g; void main() { int x; x = 1; g = x + 2; }");
        assert_eq!(out.globals.len(), 1);
        assert_eq!(out.functions[0].name, "main");
    }

    #[test]
    fn unknown_variable_rejected() {
        let e = fails("void main() { x = 1; }");
        assert!(e.msg.contains("unknown variable"));
    }

    #[test]
    fn unknown_function_rejected() {
        let e = fails("void main() { foo(); }");
        assert!(e.msg.contains("unknown function"));
    }

    #[test]
    fn arity_checked() {
        let e = fails("int f(int a) { return a; } void main() { int x; x = f(1, 2); }");
        assert!(e.msg.contains("expects 1 arguments"));
    }

    #[test]
    fn type_mismatch_rejected() {
        let e = fails("void main() { int *p; p = 5; }");
        assert!(e.msg.contains("cannot assign"));
    }

    #[test]
    fn null_pointer_literal_allowed() {
        ok("void main() { int *p; p = 0; if (p == 0) { } }");
    }

    #[test]
    fn malloc_assignable_to_any_pointer() {
        ok("struct n { int v; }; void main() { struct n *p; p = malloc(8); free(p); }");
    }

    #[test]
    fn struct_field_types_and_offsets() {
        let out = ok("struct n { char c; int v; struct n *next; }; void main() {}");
        let s = &out.structs[0];
        assert_eq!(s.fields[0].offset, 0);
        assert_eq!(s.fields[1].offset, 4, "int aligned past the char");
        assert_eq!(s.fields[2].offset, 8);
        assert_eq!(s.size, 12);
    }

    #[test]
    fn struct_by_value_recursion_rejected() {
        let e = fails("struct n { struct n inner; }; void main() {}");
        assert!(e.msg.contains("pointer"));
    }

    #[test]
    fn frame_offsets_shift_with_array_size() {
        // The JB.team6 fidelity property: growing the first buffer moves
        // the second one.
        let a = ok("void main() { char p[80]; char q[80]; p[0] = 'a'; q[0] = 'b'; }");
        let b = ok("void main() { char p[81]; char q[80]; p[0] = 'a'; q[0] = 'b'; }");
        let off = |o: &SemaOutput, name: &str| {
            o.functions[0]
                .slots
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap()
                .2
        };
        assert_eq!(off(&a, "q"), 80);
        assert_eq!(off(&b, "q"), 81);
    }

    #[test]
    fn sizes_that_overflow_32_bits_are_rejected_on_their_line() {
        // 1073741825 ints is 4 bytes past 2^32.
        let e = fails("int g;\nint a[1073741825];\nvoid main() { a[0] = 7; }");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("too large"), "{}", e.msg);
        // Two fields that each fit but not together.
        let e = fails("struct S {\n char a[2147483648]; char b[2147483648];\n};\nvoid main() {}");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("struct too large"), "{}", e.msg);
        // Two locals that each fit but not together.
        let e = fails("void main() {\n char a[4294967288];\n char b[2];\n}");
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frame too large"), "{}", e.msg);
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = fails("void main() { break; }");
        assert!(e.msg.contains("outside"));
    }

    #[test]
    fn return_type_checked() {
        let e = fails("int f() { return; } void main() {}");
        assert!(e.msg.contains("must return"));
        let e = fails("void main() { return 1; }");
        assert!(e.msg.contains("cannot return"));
    }

    #[test]
    fn array_decays_in_comparison_and_index() {
        ok("int a[10]; void main() { int i; i = 0; if (a[i] < a[i + 1]) { i = 1; } }");
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let out = ok("void main() { int *p; p = malloc(40); p = p + 2; free(p); }");
        assert!(!out.expr_types.is_empty());
    }

    #[test]
    fn void_variable_rejected() {
        let e = fails("void main() { void x; }");
        assert!(e.msg.contains("void"));
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(fails("int g; int g; void main() {}")
            .msg
            .contains("duplicate"));
        assert!(fails("void main() { int x; int x; }")
            .msg
            .contains("duplicate"));
        assert!(fails("void f() {} void f() {} void main() {}")
            .msg
            .contains("duplicate"));
    }

    #[test]
    fn builtin_clash_rejected() {
        let e = fails("int malloc(int n) { return n; } void main() {}");
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn shadowing_in_nested_block_allowed() {
        let out = ok("void main() { int x; x = 1; { int x; x = 2; } }");
        // Two distinct slots.
        assert_eq!(out.functions[0].slots.len(), 2);
    }

    #[test]
    fn assign_to_array_rejected() {
        let e = fails("int a[4]; int b[4]; void main() { a = b; }");
        assert!(e.msg.contains("array"));
    }

    #[test]
    fn ternary_types_unify() {
        ok("void main() { int d; d = 3; d = (d > 0) ? d : -d; }");
        let e = fails("void main() { int d; int *p; p = 0; d = (d > 0) ? d : p; }");
        assert!(e.msg.contains("different types") || e.msg.contains("cannot assign"));
    }

    #[test]
    fn expr_statement_must_be_call() {
        let e = fails("void main() { int x; x + 1; }");
        assert!(e.msg.contains("function calls"));
    }
}
