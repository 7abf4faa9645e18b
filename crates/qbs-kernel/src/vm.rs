//! A stack bytecode VM for kernel programs.
//!
//! [`compile`] lowers a [`KernelProgram`] into straight-line bytecode —
//! control flow becomes jumps, short-circuit `∧`/`∨` become branch
//! opcodes, and every AST re-walk the interpreter performs per loop
//! iteration disappears. [`CompiledProgram::run`] executes the program
//! in one dispatch loop over a value stack and a real [`Env`], so the
//! final variable store (and therefore [`RunResult`]) is identical to
//! the tree-walking interpreter's by construction.
//!
//! The VM is the replay engine for the differential oracle: fragments
//! are compiled once per check and re-run across many randomized
//! stores. [`qbs_kernel::run`](crate::run) remains the executable
//! semantics and the differential baseline — the equivalence suite
//! asserts compiled and interpreted runs agree on both `Ok` and `Err`
//! outcomes.
//!
//! Per-opcode dispatch counts and compile times land in this crate's
//! [`vm_metrics`] registry (`vm.dispatch.<op>`, `vm.compile_ns`,
//! `vm.compile.kernels`).

use crate::ast::{KExpr, KStmt, KernelProgram};
use crate::interp::{
    field_type_of, scalar_record, values_equal, want_bool, want_int, want_rel, InterpError,
    RunResult, DEFAULT_FUEL,
};
use qbs_common::{DispatchTally, FieldRef, Ident, OpCode, Program, Relation, Schema, Value};
use qbs_obs::{Counter, Histogram, Metrics};
use qbs_tor::{BinOp, CmpOp, DynValue, Env};
use std::sync::OnceLock;
use std::time::Instant;

/// One kernel bytecode instruction. Operands are resolved at compile
/// time (field names, jump targets, precomputed assertion messages);
/// the dispatch loop only touches the stack and the environment.
#[derive(Clone, Debug)]
pub(crate) enum KOp {
    /// Push a scalar constant.
    Push(Value),
    /// Push the untyped empty list.
    PushEmpty,
    /// Push a variable's value.
    Load(Ident),
    /// Pop into a variable binding.
    Store(Ident),
    /// Pop a record, push the named field's value.
    Field(Ident),
    /// Assert the top of stack is a scalar (record-literal field check,
    /// performed per field so error order matches the interpreter).
    RecordField,
    /// Pop N scalars, push the record `{names…}`.
    MakeRecord(Vec<Ident>),
    /// Pop, check bool in the given context, push back.
    CastBool(&'static str),
    /// Pop, check int in the given context, push back.
    CastInt(&'static str),
    /// Peek: the top of stack must be a list (checked *before* the
    /// second operand is evaluated, matching interpreter order).
    ChkRel(&'static str),
    /// Pop two ints, push the wrapping sum.
    Add,
    /// Pop two ints, push the wrapping difference.
    Sub,
    /// Pop two scalars, push the comparison result.
    Cmp(CmpOp),
    /// Pop a bool, push its negation.
    Not,
    /// Push the named table from the environment.
    Query(Ident),
    /// Pop a list, push its length.
    Size,
    /// Pop index and list, push the element (bounds-checked).
    Get,
    /// Pop element and list, push the extended list.
    Append,
    /// Pop a list, push it deduplicated.
    Unique,
    /// Pop a list, push it sorted by the given fields.
    Sort(Vec<FieldRef>),
    /// Pop a list, push it sorted by all fields (opaque comparator).
    SortCustom,
    /// Pop target and list, push the list minus the first match.
    Remove,
    /// Pop needle and list, push the membership bool.
    Contains,
    /// Unconditional jump.
    Jump(usize),
    /// Pop a bool (with kind-check context); jump when false.
    BrFalse(usize, &'static str),
    /// `∧` short circuit: pop the left bool; when false, push `false`
    /// and jump past the right operand.
    BrAndFalse(usize),
    /// `∨` short circuit: pop the left bool; when true, push `true`
    /// and jump past the right operand.
    BrOrTrue(usize),
    /// Charge one unit of loop fuel (placed at the top of each loop
    /// body, after the condition — interpreter order).
    Fuel,
    /// Pop a bool; fail with the precomputed message when false.
    Assert(String),
    /// Peek: the top of stack must be a scalar (map key probes and
    /// `mapput` values are checked as they are evaluated, matching
    /// interpreter order).
    ChkScalar(&'static str),
    /// Peek the map and its N key probes (already kind-checked), resolve
    /// the key columns, and push the matching entry index as an int
    /// (`-1` for a miss). The untyped empty map matches nothing.
    MapProbe(Vec<Ident>),
    /// `mapget` resolution: pop the probe index, probes, and map. On a
    /// hit, push the entry's `val_field` value and jump past the default
    /// code; on a miss fall through into it.
    MapGetHit {
        /// Number of key probes to pop.
        arity: usize,
        /// The field read from the matching entry.
        val_field: Ident,
        /// Jump target on a hit (past the lowered default expression).
        target: usize,
    },
    /// `mapput` resolution: pop the value, probe index, probes, and map;
    /// push the updated map (entry replaced in place, or a fresh
    /// `{keys…, val}` record appended).
    MapPut {
        /// Key field names, matching the popped probe values.
        keys: Vec<Ident>,
        /// The field written on the matching (or fresh) entry.
        val_field: Ident,
    },
}

impl OpCode for KOp {
    const NAMES: &'static [&'static str] = &[
        "push",
        "push_empty",
        "load",
        "store",
        "field",
        "record_field",
        "make_record",
        "cast_bool",
        "cast_int",
        "chk_rel",
        "add",
        "sub",
        "cmp",
        "not",
        "query",
        "size",
        "get",
        "append",
        "unique",
        "sort",
        "sort_custom",
        "remove",
        "contains",
        "jump",
        "br_false",
        "br_and_false",
        "br_or_true",
        "fuel",
        "assert",
        "chk_scalar",
        "map_probe",
        "map_get",
        "map_put",
    ];

    fn index(&self) -> usize {
        match self {
            KOp::Push(_) => 0,
            KOp::PushEmpty => 1,
            KOp::Load(_) => 2,
            KOp::Store(_) => 3,
            KOp::Field(_) => 4,
            KOp::RecordField => 5,
            KOp::MakeRecord(_) => 6,
            KOp::CastBool(_) => 7,
            KOp::CastInt(_) => 8,
            KOp::ChkRel(_) => 9,
            KOp::Add => 10,
            KOp::Sub => 11,
            KOp::Cmp(_) => 12,
            KOp::Not => 13,
            KOp::Query(_) => 14,
            KOp::Size => 15,
            KOp::Get => 16,
            KOp::Append => 17,
            KOp::Unique => 18,
            KOp::Sort(_) => 19,
            KOp::SortCustom => 20,
            KOp::Remove => 21,
            KOp::Contains => 22,
            KOp::Jump(_) => 23,
            KOp::BrFalse(_, _) => 24,
            KOp::BrAndFalse(_) => 25,
            KOp::BrOrTrue(_) => 26,
            KOp::Fuel => 27,
            KOp::Assert(_) => 28,
            KOp::ChkScalar(_) => 29,
            KOp::MapProbe(_) => 30,
            KOp::MapGetHit { .. } => 31,
            KOp::MapPut { .. } => 32,
        }
    }
}

/// A kernel program lowered to bytecode, ready for repeated replay.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    code: Program<KOp>,
    result_var: Ident,
    /// Precomputed `[]` value so `PushEmpty` is a clone, not a schema
    /// build.
    empty: Relation,
}

/// Compiles a kernel program into bytecode. Infallible: every kernel
/// construct lowers (the VM covers the whole Fig. 4 grammar, including
/// the interpreter-only `sort_custom`/`remove` categories). Observes
/// `vm.compile_ns` and `vm.compile.kernels`.
pub fn compile(prog: &KernelProgram) -> CompiledProgram {
    let started = Instant::now();
    let mut code = Vec::new();
    lower_block(prog.body(), &mut code);
    let compiled = CompiledProgram {
        code: Program { ops: code, regs: 0 },
        result_var: prog.result_var().clone(),
        empty: Relation::empty(Schema::anonymous().finish()),
    };
    let ins = instruments();
    ins.compile_ns.observe(started.elapsed().as_nanos() as u64);
    ins.compiled_kernels.inc();
    compiled
}

fn lower_block(stmts: &[KStmt], code: &mut Vec<KOp>) {
    for s in stmts {
        lower_stmt(s, code);
    }
}

fn lower_stmt(s: &KStmt, code: &mut Vec<KOp>) {
    match s {
        KStmt::Skip => {}
        KStmt::Assign(v, e) => {
            lower_expr(e, code);
            code.push(KOp::Store(v.clone()));
        }
        KStmt::If(c, t, f) => {
            lower_expr(c, code);
            let br = code.len();
            code.push(KOp::BrFalse(0, "if condition"));
            lower_block(t, code);
            let jump = code.len();
            code.push(KOp::Jump(0));
            let else_start = code.len();
            patch(code, br, else_start);
            lower_block(f, code);
            let end = code.len();
            patch(code, jump, end);
        }
        KStmt::While(c, body) => {
            let top = code.len();
            lower_expr(c, code);
            let br = code.len();
            code.push(KOp::BrFalse(0, "while condition"));
            code.push(KOp::Fuel);
            lower_block(body, code);
            code.push(KOp::Jump(top));
            let end = code.len();
            patch(code, br, end);
        }
        KStmt::Assert(e) => {
            lower_expr(e, code);
            // The interpreter reports the asserted *expression*; bake
            // that message in at compile time.
            code.push(KOp::Assert(format!("{e:?}")));
        }
    }
}

fn patch(code: &mut [KOp], at: usize, target: usize) {
    match &mut code[at] {
        KOp::Jump(t)
        | KOp::BrFalse(t, _)
        | KOp::BrAndFalse(t)
        | KOp::BrOrTrue(t)
        | KOp::MapGetHit { target: t, .. } => *t = target,
        other => unreachable!("patched a non-branch opcode {other:?}"),
    }
}

fn lower_expr(e: &KExpr, code: &mut Vec<KOp>) {
    match e {
        KExpr::Const(v) => code.push(KOp::Push(v.clone())),
        KExpr::EmptyList => code.push(KOp::PushEmpty),
        KExpr::Var(v) => code.push(KOp::Load(v.clone())),
        KExpr::Field(rec, name) => {
            lower_expr(rec, code);
            code.push(KOp::Field(name.clone()));
        }
        KExpr::RecordLit(fields) => {
            for (_, fe) in fields {
                lower_expr(fe, code);
                code.push(KOp::RecordField);
            }
            code.push(KOp::MakeRecord(fields.iter().map(|(n, _)| n.clone()).collect()));
        }
        KExpr::Binary(op, a, b) => match op {
            BinOp::And => {
                lower_expr(a, code);
                let br = code.len();
                code.push(KOp::BrAndFalse(0));
                lower_expr(b, code);
                code.push(KOp::CastBool("∧"));
                let end = code.len();
                patch(code, br, end);
            }
            BinOp::Or => {
                lower_expr(a, code);
                let br = code.len();
                code.push(KOp::BrOrTrue(0));
                lower_expr(b, code);
                code.push(KOp::CastBool("∨"));
                let end = code.len();
                patch(code, br, end);
            }
            BinOp::Add => {
                // The int check on the left operand runs before the
                // right operand is evaluated — interpreter order.
                lower_expr(a, code);
                code.push(KOp::CastInt("+"));
                lower_expr(b, code);
                code.push(KOp::CastInt("+"));
                code.push(KOp::Add);
            }
            BinOp::Sub => {
                lower_expr(a, code);
                code.push(KOp::CastInt("-"));
                lower_expr(b, code);
                code.push(KOp::CastInt("-"));
                code.push(KOp::Sub);
            }
            BinOp::Cmp(c) => {
                lower_expr(a, code);
                lower_expr(b, code);
                code.push(KOp::Cmp(*c));
            }
        },
        KExpr::Not(x) => {
            lower_expr(x, code);
            code.push(KOp::Not);
        }
        KExpr::Query(spec) => code.push(KOp::Query(spec.table.clone())),
        KExpr::Size(r) => {
            lower_expr(r, code);
            code.push(KOp::Size);
        }
        KExpr::Get(r, i) => {
            lower_expr(r, code);
            code.push(KOp::ChkRel("get"));
            lower_expr(i, code);
            code.push(KOp::Get);
        }
        KExpr::Append(r, x) => {
            lower_expr(r, code);
            code.push(KOp::ChkRel("append"));
            lower_expr(x, code);
            code.push(KOp::Append);
        }
        KExpr::Unique(r) => {
            lower_expr(r, code);
            code.push(KOp::Unique);
        }
        KExpr::Sort(fields, r) => {
            lower_expr(r, code);
            code.push(KOp::Sort(fields.clone()));
        }
        KExpr::SortCustom(r) => {
            lower_expr(r, code);
            code.push(KOp::SortCustom);
        }
        KExpr::Remove(r, x) => {
            lower_expr(r, code);
            code.push(KOp::ChkRel("remove"));
            lower_expr(x, code);
            code.push(KOp::Remove);
        }
        KExpr::Contains(r, x) => {
            lower_expr(r, code);
            code.push(KOp::ChkRel("contains"));
            lower_expr(x, code);
            code.push(KOp::Contains);
        }
        KExpr::MapGet { map, keys, val_field, default } => {
            // Interpreter order: the map's list check, then each probe's
            // scalar check as it is evaluated, then key-column resolution;
            // the default only runs on a miss.
            lower_expr(map, code);
            code.push(KOp::ChkRel("mapget"));
            for (_, e) in keys {
                lower_expr(e, code);
                code.push(KOp::ChkScalar("mapget"));
            }
            code.push(KOp::MapProbe(keys.iter().map(|(n, _)| n.clone()).collect()));
            let hit = code.len();
            code.push(KOp::MapGetHit {
                arity: keys.len(),
                val_field: val_field.clone(),
                target: 0,
            });
            lower_expr(default, code);
            code.push(KOp::ChkScalar("mapget default"));
            let end = code.len();
            patch(code, hit, end);
        }
        KExpr::MapPut { map, keys, val_field, val } => {
            // The probe resolves fully (including key-column lookups)
            // before the written value is evaluated — interpreter order.
            lower_expr(map, code);
            code.push(KOp::ChkRel("mapput"));
            for (_, e) in keys {
                lower_expr(e, code);
                code.push(KOp::ChkScalar("mapput"));
            }
            code.push(KOp::MapProbe(keys.iter().map(|(n, _)| n.clone()).collect()));
            lower_expr(val, code);
            code.push(KOp::ChkScalar("mapput value"));
            code.push(KOp::MapPut {
                keys: keys.iter().map(|(n, _)| n.clone()).collect(),
                val_field: val_field.clone(),
            });
        }
    }
}

impl CompiledProgram {
    /// Number of bytecode instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program lowered to zero instructions (a body of
    /// `skip`s).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Runs the compiled program against an initial environment —
    /// the bytecode counterpart of [`crate::run`], with identical
    /// results and errors.
    ///
    /// # Errors
    ///
    /// Propagates any [`InterpError`], exactly as the interpreter
    /// raises it (same variant, same context strings).
    pub fn run(&self, mut env: Env) -> Result<RunResult, InterpError> {
        let mut tally = DispatchTally::new(KOp::NAMES.len());
        let out = self.dispatch(&mut env, &mut tally);
        let ins = instruments();
        for (i, n) in tally.drain() {
            ins.dispatch[i].add(n);
        }
        out?;
        let result = env
            .get(&self.result_var)
            .cloned()
            .ok_or_else(|| InterpError::UnknownVar(self.result_var.clone()))?;
        Ok(RunResult { env, result })
    }

    fn dispatch(&self, env: &mut Env, tally: &mut DispatchTally) -> Result<(), InterpError> {
        let code = &self.code.ops;
        let mut stack: Vec<DynValue> = Vec::with_capacity(8);
        let mut fuel = DEFAULT_FUEL;
        let mut pc = 0;
        while pc < code.len() {
            let op = &code[pc];
            tally.record(op.index());
            pc += 1;
            match op {
                KOp::Push(v) => stack.push(DynValue::Scalar(v.clone())),
                KOp::PushEmpty => stack.push(DynValue::Rel(self.empty.clone())),
                KOp::Load(v) => stack.push(
                    env.get(v).cloned().ok_or_else(|| InterpError::UnknownVar(v.clone()))?,
                ),
                KOp::Store(v) => {
                    let val = pop(&mut stack);
                    env.bind(v.clone(), val);
                }
                KOp::Field(name) => match pop(&mut stack) {
                    DynValue::Rec(r) => {
                        stack.push(DynValue::Scalar(r.get(&name.as_str().into())?.clone()))
                    }
                    other => {
                        return Err(InterpError::Kind {
                            context: "field access",
                            expected: "record",
                            found: other.kind(),
                        })
                    }
                },
                KOp::RecordField => match stack.last().expect("record field on stack") {
                    DynValue::Scalar(_) => {}
                    other => {
                        return Err(InterpError::Kind {
                            context: "record literal",
                            expected: "scalar",
                            found: other.kind(),
                        })
                    }
                },
                KOp::MakeRecord(names) => {
                    let mut values = Vec::with_capacity(names.len());
                    for _ in names {
                        match pop(&mut stack) {
                            DynValue::Scalar(v) => values.push(v),
                            _ => unreachable!("RecordField checked every field"),
                        }
                    }
                    values.reverse();
                    let mut b = Schema::anonymous();
                    for (name, v) in names.iter().zip(&values) {
                        let ty = match v {
                            Value::Bool(_) => qbs_common::FieldType::Bool,
                            Value::Int(_) => qbs_common::FieldType::Int,
                            Value::Str(_) => qbs_common::FieldType::Str,
                        };
                        b = b.field(name.as_str(), ty);
                    }
                    stack.push(DynValue::Rec(qbs_common::Record::new(b.finish(), values)));
                }
                KOp::CastBool(ctx) => {
                    let b = want_bool(pop(&mut stack), ctx)?;
                    stack.push(DynValue::Scalar(Value::from(b)));
                }
                KOp::CastInt(ctx) => {
                    let i = want_int(pop(&mut stack), ctx)?;
                    stack.push(DynValue::Scalar(Value::from(i)));
                }
                KOp::ChkRel(ctx) => {
                    let top = stack.last().expect("list operand on stack");
                    if !matches!(top, DynValue::Rel(_)) {
                        return Err(InterpError::Kind {
                            context: ctx,
                            expected: "list",
                            found: top.kind(),
                        });
                    }
                }
                KOp::Add => {
                    let (x, y) = pop_ints(&mut stack);
                    stack.push(DynValue::Scalar(Value::from(x.wrapping_add(y))));
                }
                KOp::Sub => {
                    let (x, y) = pop_ints(&mut stack);
                    stack.push(DynValue::Scalar(Value::from(x.wrapping_sub(y))));
                }
                KOp::Cmp(c) => {
                    let y = pop(&mut stack);
                    let x = pop(&mut stack);
                    match (x, y) {
                        (DynValue::Scalar(x), DynValue::Scalar(y)) => {
                            stack.push(DynValue::Scalar(Value::from(c.test(x.total_cmp(&y)))))
                        }
                        (x, y) => {
                            return Err(InterpError::Kind {
                                context: "comparison",
                                expected: "scalar",
                                found: if x.as_scalar().is_some() {
                                    y.kind()
                                } else {
                                    x.kind()
                                },
                            })
                        }
                    }
                }
                KOp::Not => {
                    let b = want_bool(pop(&mut stack), "¬")?;
                    stack.push(DynValue::Scalar(Value::from(!b)));
                }
                KOp::Query(table) => stack.push(
                    env.table(table)
                        .cloned()
                        .map(DynValue::Rel)
                        .ok_or_else(|| InterpError::UnknownTable(table.clone()))?,
                ),
                KOp::Size => {
                    let rel = want_rel(pop(&mut stack), "size")?;
                    stack.push(DynValue::Scalar(Value::from(rel.len() as i64)));
                }
                KOp::Get => {
                    let idx = want_int(pop(&mut stack), "get index")?;
                    let rel = pop_rel(&mut stack);
                    if idx < 0 || idx as usize >= rel.len() {
                        return Err(InterpError::OutOfBounds { index: idx, len: rel.len() });
                    }
                    stack.push(DynValue::Rec(
                        rel.get(idx as usize).expect("bounds checked").clone(),
                    ));
                }
                KOp::Append => {
                    let rec = match pop(&mut stack) {
                        DynValue::Rec(rec) => rec,
                        // Scalar appends build single-column lists.
                        DynValue::Scalar(v) => scalar_record(v),
                        other => {
                            return Err(InterpError::Kind {
                                context: "append",
                                expected: "record or scalar",
                                found: other.kind(),
                            })
                        }
                    };
                    let rel = pop_rel(&mut stack);
                    // Appending to the untyped empty list adopts the
                    // record's schema.
                    if rel.is_empty() && rel.schema().arity() == 0 {
                        stack.push(DynValue::Rel(Relation::from_records(
                            rec.schema().clone(),
                            vec![rec],
                        )?));
                    } else {
                        stack.push(DynValue::Rel(rel.append(rec)?));
                    }
                }
                KOp::Unique => {
                    let rel = want_rel(pop(&mut stack), "unique")?;
                    stack.push(DynValue::Rel(rel.unique()));
                }
                KOp::Sort(fields) => {
                    let rel = want_rel(pop(&mut stack), "sort")?;
                    stack.push(DynValue::Rel(rel.sorted_by(fields)?));
                }
                KOp::SortCustom => {
                    // Opaque comparator: deterministic order by all
                    // fields, matching the interpreter.
                    let rel = want_rel(pop(&mut stack), "sort")?;
                    let all: Vec<FieldRef> = rel
                        .schema()
                        .fields()
                        .iter()
                        .map(|f| FieldRef {
                            qualifier: f.qualifier.clone(),
                            name: f.name.clone(),
                        })
                        .collect();
                    stack.push(DynValue::Rel(rel.sorted_by(&all)?));
                }
                KOp::Remove => {
                    let target = pop(&mut stack);
                    let rel = pop_rel(&mut stack);
                    let mut removed = false;
                    let mut rows = Vec::new();
                    for rec in rel.iter() {
                        let matches = match &target {
                            DynValue::Rec(t) => values_equal(t, rec),
                            DynValue::Scalar(v) => {
                                rel.schema().arity() == 1 && rec.value_at(0) == v
                            }
                            DynValue::Rel(_) => false,
                        };
                        if matches && !removed {
                            removed = true;
                            continue;
                        }
                        rows.push(rec.clone());
                    }
                    stack.push(DynValue::Rel(
                        Relation::from_records(rel.schema().clone(), rows)
                            .expect("schema unchanged"),
                    ));
                }
                KOp::Contains => {
                    let needle = pop(&mut stack);
                    let rel = pop_rel(&mut stack);
                    let found = match needle {
                        DynValue::Rec(rec) => rel.iter().any(|o| values_equal(&rec, o)),
                        DynValue::Scalar(v) => {
                            rel.schema().arity() == 1 && rel.iter().any(|o| o.value_at(0) == &v)
                        }
                        other => {
                            return Err(InterpError::Kind {
                                context: "contains",
                                expected: "record or scalar",
                                found: other.kind(),
                            })
                        }
                    };
                    stack.push(DynValue::Scalar(Value::from(found)));
                }
                KOp::Jump(t) => pc = *t,
                KOp::BrFalse(t, ctx) => {
                    if !want_bool(pop(&mut stack), ctx)? {
                        pc = *t;
                    }
                }
                KOp::BrAndFalse(t) => {
                    if !want_bool(pop(&mut stack), "∧")? {
                        stack.push(DynValue::Scalar(Value::from(false)));
                        pc = *t;
                    }
                }
                KOp::BrOrTrue(t) => {
                    if want_bool(pop(&mut stack), "∨")? {
                        stack.push(DynValue::Scalar(Value::from(true)));
                        pc = *t;
                    }
                }
                KOp::Fuel => {
                    if fuel == 0 {
                        return Err(InterpError::OutOfFuel);
                    }
                    fuel -= 1;
                }
                KOp::Assert(msg) => {
                    if !want_bool(pop(&mut stack), "assert")? {
                        return Err(InterpError::AssertionFailed(msg.clone()));
                    }
                }
                KOp::ChkScalar(ctx) => {
                    let top = stack.last().expect("scalar operand on stack");
                    if !matches!(top, DynValue::Scalar(_)) {
                        return Err(InterpError::Kind {
                            context: ctx,
                            expected: "scalar",
                            found: top.kind(),
                        });
                    }
                }
                KOp::MapProbe(keys) => {
                    // Stack: [map, probe1 … probeN]; peek everything and
                    // push the matching entry index (or -1).
                    let n = keys.len();
                    let map_at = stack.len() - n - 1;
                    let rel = match &stack[map_at] {
                        DynValue::Rel(r) => r,
                        _ => unreachable!("ChkRel checked the map operand"),
                    };
                    // The untyped empty map matches nothing.
                    let found = if rel.schema().arity() == 0 {
                        None
                    } else {
                        let mut key_idx = Vec::with_capacity(n);
                        for name in keys {
                            key_idx
                                .push(rel.schema().index_of(&FieldRef::from(name.as_str()))?);
                        }
                        let probes: Vec<&Value> = stack[map_at + 1..]
                            .iter()
                            .map(|p| match p {
                                DynValue::Scalar(v) => v,
                                _ => unreachable!("ChkScalar checked every probe"),
                            })
                            .collect();
                        rel.iter().position(|rec| {
                            key_idx.iter().zip(&probes).all(|(&i, p)| rec.value_at(i) == *p)
                        })
                    };
                    stack.push(DynValue::Scalar(Value::from(found.map_or(-1, |i| i as i64))));
                }
                KOp::MapGetHit { arity, val_field, target } => {
                    let found = match pop(&mut stack) {
                        DynValue::Scalar(Value::Int(i)) => i,
                        _ => unreachable!("MapProbe pushed the index"),
                    };
                    let probes_at = stack.len() - arity;
                    stack.truncate(probes_at);
                    let rel = pop_rel(&mut stack);
                    if found >= 0 {
                        let rec = rel.get(found as usize).expect("probe index in range");
                        stack.push(DynValue::Scalar(
                            rec.get(&FieldRef::from(val_field.as_str()))?.clone(),
                        ));
                        pc = *target;
                    }
                    // On a miss fall through into the lowered default.
                }
                KOp::MapPut { keys, val_field } => {
                    let v = match pop(&mut stack) {
                        DynValue::Scalar(v) => v,
                        _ => unreachable!("ChkScalar checked the value"),
                    };
                    let found = match pop(&mut stack) {
                        DynValue::Scalar(Value::Int(i)) => i,
                        _ => unreachable!("MapProbe pushed the index"),
                    };
                    let probes_at = stack.len() - keys.len();
                    let probes: Vec<Value> = stack
                        .drain(probes_at..)
                        .map(|p| match p {
                            DynValue::Scalar(v) => v,
                            _ => unreachable!("ChkScalar checked every probe"),
                        })
                        .collect();
                    let rel = pop_rel(&mut stack);
                    if found >= 0 {
                        let hit = found as usize;
                        let schema = rel.schema().clone();
                        let vi = schema.index_of(&FieldRef::from(val_field.as_str()))?;
                        let rows = rel
                            .iter()
                            .enumerate()
                            .map(|(i, rec)| {
                                if i == hit {
                                    let mut values = rec.values().to_vec();
                                    values[vi] = v.clone();
                                    qbs_common::Record::new(schema.clone(), values)
                                } else {
                                    rec.clone()
                                }
                            })
                            .collect();
                        stack.push(DynValue::Rel(Relation::from_records(schema, rows)?));
                    } else {
                        // Fresh entry: adopt (or build) the entry schema.
                        let schema = if rel.schema().arity() == 0 {
                            let mut b = Schema::anonymous();
                            for (name, pv) in keys.iter().zip(&probes) {
                                b = b.field(name.as_str(), field_type_of(pv));
                            }
                            b.field(val_field.as_str(), field_type_of(&v)).finish()
                        } else {
                            rel.schema().clone()
                        };
                        let mut values = probes;
                        values.push(v);
                        let rec = qbs_common::Record::new(schema.clone(), values);
                        if rel.schema().arity() == 0 {
                            stack.push(DynValue::Rel(Relation::from_records(
                                schema,
                                vec![rec],
                            )?));
                        } else {
                            stack.push(DynValue::Rel(rel.append(rec)?));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn pop(stack: &mut Vec<DynValue>) -> DynValue {
    stack.pop().expect("lowering keeps the stack balanced")
}

fn pop_ints(stack: &mut Vec<DynValue>) -> (i64, i64) {
    let y = pop(stack);
    let x = pop(stack);
    match (x, y) {
        (DynValue::Scalar(Value::Int(x)), DynValue::Scalar(Value::Int(y))) => (x, y),
        _ => unreachable!("CastInt checked both operands"),
    }
}

fn pop_rel(stack: &mut Vec<DynValue>) -> Relation {
    match pop(stack) {
        DynValue::Rel(r) => r,
        _ => unreachable!("ChkRel checked the list operand"),
    }
}

/// The VM's metrics: one pre-registered handle per counter so the
/// dispatch-loop flush is pure atomic adds.
struct VmInstruments {
    metrics: Metrics,
    dispatch: Vec<Counter>,
    compile_ns: Histogram,
    compiled_kernels: Counter,
}

fn instruments() -> &'static VmInstruments {
    static VM: OnceLock<VmInstruments> = OnceLock::new();
    VM.get_or_init(|| {
        let metrics = Metrics::new();
        let dispatch =
            KOp::NAMES.iter().map(|n| metrics.counter(&format!("vm.dispatch.{n}"))).collect();
        VmInstruments {
            dispatch,
            compile_ns: metrics.histogram("vm.compile_ns", &qbs_obs::time_bounds_ns()),
            compiled_kernels: metrics.counter("vm.compile.kernels"),
            metrics,
        }
    })
}

/// The process-wide kernel-VM metrics registry: per-opcode dispatch
/// counters (`vm.dispatch.<op>`), the `vm.compile_ns` histogram, and
/// the `vm.compile.kernels` total.
pub fn vm_metrics() -> Metrics {
    instruments().metrics.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use qbs_common::{FieldType, Record};
    use qbs_tor::QuerySpec;

    fn users_table() -> (qbs_common::SchemaRef, Relation) {
        let s = Schema::builder("users")
            .field("id", FieldType::Int)
            .field("roleId", FieldType::Int)
            .finish();
        let rel = Relation::from_records(
            s.clone(),
            vec![
                Record::new(s.clone(), vec![1.into(), 10.into()]),
                Record::new(s.clone(), vec![2.into(), 20.into()]),
                Record::new(s.clone(), vec![3.into(), 10.into()]),
            ],
        )
        .unwrap();
        (s, rel)
    }

    fn selection_program() -> (KernelProgram, Env) {
        let (s, rel) = users_table();
        let prog = KernelProgram::builder("sel")
            .stmt(KStmt::assign("out", KExpr::EmptyList))
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", s))))
            .stmt(KStmt::assign("i", KExpr::int(0)))
            .stmt(KStmt::while_loop(
                KExpr::cmp(CmpOp::Lt, KExpr::var("i"), KExpr::size(KExpr::var("users"))),
                vec![
                    KStmt::if_then(
                        KExpr::cmp(
                            CmpOp::Eq,
                            KExpr::field(
                                KExpr::get(KExpr::var("users"), KExpr::var("i")),
                                "roleId",
                            ),
                            KExpr::int(10),
                        ),
                        vec![KStmt::assign(
                            "out",
                            KExpr::append(
                                KExpr::var("out"),
                                KExpr::get(KExpr::var("users"), KExpr::var("i")),
                            ),
                        )],
                    ),
                    KStmt::assign("i", KExpr::add(KExpr::var("i"), KExpr::int(1))),
                ],
            ))
            .result("out")
            .finish();
        let mut env = Env::new();
        env.bind_table("users", rel);
        (prog, env)
    }

    #[test]
    fn compiled_selection_matches_interpreter_env_and_result() {
        let (prog, env) = selection_program();
        let compiled = compile(&prog);
        let vm = compiled.run(env.clone()).unwrap();
        let interp = run(&prog, env).unwrap();
        assert_eq!(vm, interp);
        assert_eq!(vm.result.as_relation().unwrap().len(), 2);
    }

    #[test]
    fn short_circuit_and_skips_the_right_operand() {
        // `false ∧ (1 = [])` errors in neither engine: the right
        // operand is never evaluated.
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign(
                "out",
                KExpr::and(
                    KExpr::bool(false),
                    KExpr::cmp(CmpOp::Eq, KExpr::int(1), KExpr::EmptyList),
                ),
            ))
            .result("out")
            .finish();
        let vm = compile(&prog).run(Env::new()).unwrap();
        let interp = run(&prog, Env::new()).unwrap();
        assert_eq!(vm, interp);
        assert_eq!(vm.result.as_bool(), Some(false));
    }

    #[test]
    fn errors_match_the_interpreter_exactly() {
        // Out-of-bounds get, kind error, assertion failure, fuel — the
        // compiled run must produce the identical error value.
        let cases = vec![
            KernelProgram::builder("oob")
                .stmt(KStmt::assign("xs", KExpr::EmptyList))
                .stmt(KStmt::assign("xs", KExpr::append(KExpr::var("xs"), KExpr::int(1))))
                .stmt(KStmt::assign("out", KExpr::get(KExpr::var("xs"), KExpr::int(5))))
                .result("out")
                .finish(),
            KernelProgram::builder("kind")
                .stmt(KStmt::assign("out", KExpr::add(KExpr::int(1), KExpr::bool(true))))
                .result("out")
                .finish(),
            KernelProgram::builder("assert")
                .stmt(KStmt::Assert(KExpr::bool(false)))
                .stmt(KStmt::assign("out", KExpr::int(0)))
                .result("out")
                .finish(),
            KernelProgram::builder("fuel")
                .stmt(KStmt::assign("out", KExpr::int(0)))
                .stmt(KStmt::while_loop(KExpr::bool(true), vec![KStmt::Skip]))
                .result("out")
                .finish(),
            KernelProgram::builder("unbound")
                .stmt(KStmt::assign("out", KExpr::var("nope")))
                .result("out")
                .finish(),
        ];
        for prog in cases {
            let vm = compile(&prog).run(Env::new());
            let interp = run(&prog, Env::new());
            assert_eq!(vm, interp, "divergence in `{}`", prog.name());
            assert!(vm.is_err());
        }
    }

    #[test]
    fn record_sort_remove_contains_round_trip() {
        let (s, rel) = users_table();
        let prog = KernelProgram::builder("mix")
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", s))))
            .stmt(KStmt::assign("sorted", KExpr::SortCustom(Box::new(KExpr::var("users")))))
            .stmt(KStmt::assign(
                "trimmed",
                KExpr::Remove(
                    Box::new(KExpr::var("sorted")),
                    Box::new(KExpr::get(KExpr::var("sorted"), KExpr::int(0))),
                ),
            ))
            .stmt(KStmt::assign(
                "r",
                KExpr::RecordLit(vec![
                    ("n".into(), KExpr::size(KExpr::var("trimmed"))),
                    (
                        "has".into(),
                        KExpr::contains(
                            KExpr::var("trimmed"),
                            KExpr::get(KExpr::var("users"), KExpr::int(1)),
                        ),
                    ),
                ]),
            ))
            .stmt(KStmt::assign("out", KExpr::field(KExpr::var("r"), "n")))
            .result("out")
            .finish();
        let mut env = Env::new();
        env.bind_table("users", rel);
        let vm = compile(&prog).run(env.clone()).unwrap();
        let interp = run(&prog, env).unwrap();
        assert_eq!(vm, interp);
        assert_eq!(vm.result.as_int(), Some(2));
    }

    /// The per-key accumulator idiom (`m[k] += v` via mapget/mapput) —
    /// the loop shape the synthesizer turns into GROUP BY.
    fn sum_by_role_program() -> (KernelProgram, Env) {
        let (s, rel) = users_table();
        let probe = || {
            vec![(
                Ident::new("roleId"),
                KExpr::field(KExpr::get(KExpr::var("users"), KExpr::var("i")), "roleId"),
            )]
        };
        let prog = KernelProgram::builder("sumByRole")
            .stmt(KStmt::assign("m", KExpr::EmptyList))
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", s))))
            .stmt(KStmt::assign("i", KExpr::int(0)))
            .stmt(KStmt::while_loop(
                KExpr::cmp(CmpOp::Lt, KExpr::var("i"), KExpr::size(KExpr::var("users"))),
                vec![
                    KStmt::assign(
                        "m",
                        KExpr::mapput(
                            KExpr::var("m"),
                            probe(),
                            "total",
                            KExpr::add(
                                KExpr::mapget(KExpr::var("m"), probe(), "total", KExpr::int(0)),
                                KExpr::field(
                                    KExpr::get(KExpr::var("users"), KExpr::var("i")),
                                    "id",
                                ),
                            ),
                        ),
                    ),
                    KStmt::assign("i", KExpr::add(KExpr::var("i"), KExpr::int(1))),
                ],
            ))
            .result("m")
            .finish();
        let mut env = Env::new();
        env.bind_table("users", rel);
        (prog, env)
    }

    #[test]
    fn compiled_map_accumulator_matches_interpreter() {
        let (prog, env) = sum_by_role_program();
        let vm = compile(&prog).run(env.clone()).unwrap();
        let interp = run(&prog, env).unwrap();
        assert_eq!(vm, interp);
        let m = vm.result.as_relation().unwrap();
        // First-occurrence key order: roleId 10 (ids 1+3), then 20 (id 2).
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0).unwrap().values(), &[Value::from(10), Value::from(4)]);
        assert_eq!(m.get(1).unwrap().values(), &[Value::from(20), Value::from(2)]);
    }

    #[test]
    fn map_errors_match_the_interpreter_exactly() {
        let probe = |k: i64| vec![(Ident::new("k"), KExpr::int(k))];
        let cases = vec![
            // mapget over a non-list.
            KernelProgram::builder("notamap")
                .stmt(KStmt::assign(
                    "out",
                    KExpr::mapget(KExpr::int(3), probe(1), "v", KExpr::int(0)),
                ))
                .result("out")
                .finish(),
            // Non-scalar probe expression.
            KernelProgram::builder("relprobe")
                .stmt(KStmt::assign(
                    "out",
                    KExpr::mapget(
                        KExpr::EmptyList,
                        vec![(Ident::new("k"), KExpr::EmptyList)],
                        "v",
                        KExpr::int(0),
                    ),
                ))
                .result("out")
                .finish(),
            // Non-scalar default, reached only on a miss.
            KernelProgram::builder("reldefault")
                .stmt(KStmt::assign(
                    "out",
                    KExpr::mapget(KExpr::EmptyList, probe(1), "v", KExpr::EmptyList),
                ))
                .result("out")
                .finish(),
            // mapput probing a key field the entry schema lacks.
            KernelProgram::builder("badkey")
                .stmt(KStmt::assign("m", KExpr::EmptyList))
                .stmt(KStmt::assign(
                    "m",
                    KExpr::mapput(KExpr::var("m"), probe(1), "v", KExpr::int(1)),
                ))
                .stmt(KStmt::assign(
                    "out",
                    KExpr::mapput(
                        KExpr::var("m"),
                        vec![(Ident::new("nope"), KExpr::int(1))],
                        "v",
                        KExpr::int(2),
                    ),
                ))
                .result("out")
                .finish(),
            // Non-scalar written value.
            KernelProgram::builder("relvalue")
                .stmt(KStmt::assign(
                    "out",
                    KExpr::mapput(KExpr::EmptyList, probe(1), "v", KExpr::EmptyList),
                ))
                .result("out")
                .finish(),
        ];
        for prog in cases {
            let vm = compile(&prog).run(Env::new());
            let interp = run(&prog, Env::new());
            assert_eq!(vm, interp, "divergence in `{}`", prog.name());
            assert!(vm.is_err(), "`{}` should error", prog.name());
        }
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let (prog, env) = selection_program();
        let compiled = compile(&prog);
        let append = KOp::NAMES.iter().position(|n| *n == "append").expect("known opcode");
        // The exact count comes from this run's own tally: the global
        // `vm_metrics()` counter is shared with every test thread that
        // runs an `append`, so an exact delta on it races.
        let mut tally = DispatchTally::new(KOp::NAMES.len());
        compiled.dispatch(&mut env.clone(), &mut tally).unwrap();
        let appends = tally.drain().find(|(i, _)| *i == append).map_or(0, |(_, n)| n);
        assert_eq!(appends, 2, "two appends in the selection loop");
        // `run` flushes its tally into the global counter, which other
        // threads may only add to.
        let counter = vm_metrics().counter("vm.dispatch.append");
        let before = counter.get();
        compiled.run(env).unwrap();
        assert!(counter.get() - before >= appends, "append dispatches flushed");
    }
}
