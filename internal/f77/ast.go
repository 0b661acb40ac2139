package f77

import (
	"fmt"
	"strings"
)

// Type is a Fortran data type.
type Type int

// Fortran types of the subset. DOUBLE PRECISION and REAL are both
// executed as float64; they are kept distinct for declarations.
const (
	TInteger Type = iota
	TReal
	TDouble
	TLogical
)

func (t Type) String() string {
	switch t {
	case TInteger:
		return "INTEGER"
	case TReal:
		return "REAL"
	case TDouble:
		return "DOUBLE PRECISION"
	case TLogical:
		return "LOGICAL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// IsFloat reports whether values of the type are floating point.
func (t Type) IsFloat() bool { return t == TReal || t == TDouble }

// Dim is one array dimension with inclusive bounds. A nil High means an
// assumed-size dimension ('*', legal only as the last dimension of a
// dummy argument, as in the paper's REAL A(14,*)).
type Dim struct {
	Low  Expr // nil means the default lower bound 1
	High Expr
}

// Symbol is a declared name within a unit.
type Symbol struct {
	Name string
	Type Type
	Dims []Dim // empty for scalars

	IsArg   bool    // dummy argument
	IsConst bool    // PARAMETER constant
	Const   float64 // value when IsConst

	// Common names the COMMON block the symbol lives in ("" if none);
	// CommonIndex is its position within the block. Members of the
	// same-named block in different units alias storage positionally.
	Common      string
	CommonIndex int

	// Annotations written by internal/analysis:

	// Private marks scalars proven privatizable in the enclosing
	// parallel loop.
	Private bool
}

// IsArray reports whether the symbol is an array.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// SymTab is a per-unit symbol table.
type SymTab struct {
	byName map[string]*Symbol
	Order  []*Symbol
}

// NewSymTab returns an empty table.
func NewSymTab() *SymTab { return &SymTab{byName: make(map[string]*Symbol)} }

// Lookup finds a symbol by (upper-case) name.
func (st *SymTab) Lookup(name string) *Symbol { return st.byName[strings.ToUpper(name)] }

// Define inserts a symbol; redefining a name returns the existing one.
func (st *SymTab) Define(s *Symbol) *Symbol {
	key := strings.ToUpper(s.Name)
	if old, ok := st.byName[key]; ok {
		return old
	}
	st.byName[key] = s
	st.Order = append(st.Order, s)
	return s
}

// UnitKind classifies a program unit.
type UnitKind int

// Program unit kinds.
const (
	KProgram UnitKind = iota
	KSubroutine
	KFunction
)

// Unit is one program unit: a main program, subroutine, or function.
type Unit struct {
	Kind   UnitKind
	Name   string
	Params []*Symbol
	Result Type // function result type
	Syms   *SymTab
	Body   []Stmt
	// DataInits are DATA-statement initializations applied at startup:
	// symbol -> flattened initial values (repeated to fill arrays).
	DataInits []DataInit
	// Commons lists each COMMON block's members in declaration order.
	Commons map[string][]*Symbol
}

// DataInit records one DATA initialization.
type DataInit struct {
	Sym  *Symbol
	Vals []float64
}

// Program is a whole translation unit: a main program plus its
// subroutines and functions.
type Program struct {
	Units []*Unit
}

// Main returns the main program unit, or nil.
func (p *Program) Main() *Unit {
	for _, u := range p.Units {
		if u.Kind == KProgram {
			return u
		}
	}
	return nil
}

// Lookup finds a unit by (upper-case) name.
func (p *Program) Lookup(name string) *Unit {
	name = strings.ToUpper(name)
	for _, u := range p.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// ---- Statements ----

// Stmt is any statement.
type Stmt interface {
	stmt()
	// Label returns the numeric statement label (0 if none).
	Label() int
	// Line returns the source line.
	Line() int
}

// StmtBase carries the label and source position.
type StmtBase struct {
	Lbl     int
	SrcLine int
}

func (s *StmtBase) stmt()      {}
func (s *StmtBase) Label() int { return s.Lbl }
func (s *StmtBase) Line() int  { return s.SrcLine }

// Ref is an lvalue: a scalar variable or an array element.
type Ref struct {
	Sym  *Symbol
	Subs []Expr // empty for scalars
}

// Assign is LHS = RHS.
type Assign struct {
	StmtBase
	LHS *Ref
	RHS Expr
}

// Schedule is the iteration-to-processor mapping of a parallel loop.
type Schedule int

// Work-partitioning schedules (§5.3): "cyclic assignment for triangular
// loops, and block assignment for square loops."
const (
	SchedBlock Schedule = iota
	SchedCyclic
)

func (s Schedule) String() string {
	if s == SchedCyclic {
		return "cyclic"
	}
	return "block"
}

// Reduction records one recognized reduction in a parallel loop.
type Reduction struct {
	Sym *Symbol // the reduction scalar (or array for array reductions)
	Op  string  // "+", "*", "MAX", "MIN"
}

// DoLoop is a DO loop (either DO...ENDDO or the labeled DO...CONTINUE
// form, which the parser normalizes away).
type DoLoop struct {
	StmtBase
	Var  *Symbol
	From Expr
	To   Expr
	Step Expr // nil means 1
	Body []Stmt

	// Annotations from the front end's parallelism detection (§3) —
	// "loops that are identified as parallel by these techniques are
	// marked with parallel directive".
	Parallel   bool
	Schedule   Schedule
	Reductions []*Reduction
	Private    []*Symbol
	// Triangular notes that the trip count of an inner loop depends on
	// this loop's index (drives the cyclic schedule).
	Triangular bool
	// Deps is the dependence record of the nest the loop belongs to,
	// an *analysis.Nest: parallel-detect builds one per outermost loop
	// and hangs it on every loop of the nest; partition and vbcc
	// -explain read it. A clone does not carry it.
	Deps any
}

// IfBlock is a block IF with optional ELSEIF arms and ELSE. A logical
// IF statement parses as a single-arm IfBlock.
type IfBlock struct {
	StmtBase
	Conds  []Expr   // len >= 1: IF, ELSEIF...
	Blocks [][]Stmt // bodies matching Conds
	Else   []Stmt
}

// Goto jumps to a labeled statement in the same statement sequence.
type Goto struct {
	StmtBase
	Target int
}

// ContinueStmt is a CONTINUE (only meaningful as a label carrier).
type ContinueStmt struct {
	StmtBase
}

// CallStmt invokes a subroutine.
type CallStmt struct {
	StmtBase
	Name string
	Args []Expr
}

// ReturnStmt returns from a subroutine/function.
type ReturnStmt struct {
	StmtBase
}

// StopStmt halts the program.
type StopStmt struct {
	StmtBase
}

// PrintStmt is PRINT *, args.
type PrintStmt struct {
	StmtBase
	Args []Expr
}

// ---- Expressions ----

// Expr is any expression.
type Expr interface {
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	Val int64
}

// RealLit is a floating literal.
type RealLit struct {
	Val    float64
	Double bool
}

// LogLit is .TRUE. / .FALSE.
type LogLit struct {
	Val bool
}

// StrLit is a character literal (PRINT only).
type StrLit struct {
	Val string
}

// VarExpr reads a scalar variable (or names a whole array when passed
// as an argument).
type VarExpr struct {
	Sym *Symbol
}

// ArrayExpr reads an array element.
type ArrayExpr struct {
	Sym  *Symbol
	Subs []Expr
}

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpPow:
		return "**"
	case OpLT:
		return ".LT."
	case OpLE:
		return ".LE."
	case OpGT:
		return ".GT."
	case OpGE:
		return ".GE."
	case OpEQ:
		return ".EQ."
	case OpNE:
		return ".NE."
	case OpAnd:
		return ".AND."
	case OpOr:
		return ".OR."
	default:
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
}

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	OpNeg UnOp = iota
	OpNot
	OpPlus
)

// Un is a unary expression.
type Un struct {
	Op UnOp
	X  Expr
}

// CallExpr invokes an intrinsic or user function.
type CallExpr struct {
	Name      string
	Args      []Expr
	Intrinsic bool
	// Ret is the resolved result type of a user function, filled by the
	// semantic pass.
	Ret Type
}

func (*IntLit) expr()    {}
func (*RealLit) expr()   {}
func (*LogLit) expr()    {}
func (*StrLit) expr()    {}
func (*VarExpr) expr()   {}
func (*ArrayExpr) expr() {}
func (*Bin) expr()       {}
func (*Un) expr()        {}
func (*CallExpr) expr()  {}

// Intrinsics maps intrinsic names to their argument counts (-1 for
// variadic MIN/MAX) — the F77 numeric intrinsics the subset supports.
var Intrinsics = map[string]int{
	"ABS": 1, "IABS": 1, "SQRT": 1, "EXP": 1, "LOG": 1, "ALOG": 1,
	"SIN": 1, "COS": 1, "TAN": 1, "ATAN": 1, "ATAN2": 2,
	"MOD": 2, "MIN": -1, "MAX": -1, "MIN0": -1, "MAX0": -1,
	"AMIN1": -1, "AMAX1": -1, "INT": 1, "NINT": 1, "REAL": 1,
	"FLOAT": 1, "DBLE": 1, "SIGN": 2, "DMOD": 2,
}

// TypeOf computes the static type of an expression (after parsing,
// symbols are resolved so this is total).
func TypeOf(e Expr) Type {
	switch x := e.(type) {
	case *IntLit:
		return TInteger
	case *RealLit:
		if x.Double {
			return TDouble
		}
		return TReal
	case *LogLit:
		return TLogical
	case *StrLit:
		return TLogical // strings only occur in PRINT; type unused
	case *VarExpr:
		return x.Sym.Type
	case *ArrayExpr:
		return x.Sym.Type
	case *Un:
		if x.Op == OpNot {
			return TLogical
		}
		return TypeOf(x.X)
	case *Bin:
		switch x.Op {
		case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE, OpAnd, OpOr:
			return TLogical
		}
		lt, rt := TypeOf(x.L), TypeOf(x.R)
		if lt == TDouble || rt == TDouble {
			return TDouble
		}
		if lt == TReal || rt == TReal {
			return TReal
		}
		return TInteger
	case *CallExpr:
		return intrinsicType(x)
	default:
		panic(fmt.Sprintf("f77: TypeOf(%T)", e))
	}
}

func intrinsicType(c *CallExpr) Type {
	switch c.Name {
	case "INT", "NINT", "IABS", "MAX0", "MIN0":
		return TInteger
	case "REAL", "FLOAT", "AMIN1", "AMAX1":
		return TReal
	case "DBLE", "DMOD":
		return TDouble
	case "MOD", "ABS", "MIN", "MAX", "SIGN":
		// Generic: type of first argument.
		if len(c.Args) > 0 {
			return TypeOf(c.Args[0])
		}
		return TInteger
	case "SQRT", "EXP", "LOG", "ALOG", "SIN", "COS", "TAN", "ATAN", "ATAN2":
		return TReal
	}
	// User function: the semantic pass resolved the result type.
	return c.Ret
}
