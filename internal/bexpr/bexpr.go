// Package bexpr parses Boolean expressions in the paper's notation into
// an AST that can be elaborated to truth tables. It is the entry
// point used by the command-line tools and examples.
//
// Grammar (lowest to highest precedence):
//
//	expr   := xorterm ('+' xorterm)*            // OR
//	xorterm:= term ('^' term)*                  // XOR
//	term   := factor (('*')? factor)*           // AND, '*' optional
//	factor := '!' factor | atom postfix*
//	postfix:= '\''                              // complement
//	atom   := 'x' digits | '0' | '1' | '(' expr ')'
//
// Variables are 1-indexed (x1 is variable 0 internally), matching the
// DATE'17 paper.
package bexpr

import (
	"fmt"
	"strconv"
	"strings"

	"nanoxbar/internal/truthtab"
)

// Op identifies an AST node kind.
type Op int

// AST node kinds.
const (
	OpConst Op = iota
	OpVar
	OpNot
	OpAnd
	OpOr
	OpXor
)

// Expr is a parsed Boolean expression tree.
type Expr struct {
	Op    Op
	Val   bool  // OpConst
	Var   int   // OpVar, 0-indexed
	Left  *Expr // OpNot uses Left only
	Right *Expr
}

// MaxVar returns the number of variables needed: one past the highest
// 0-indexed variable used (0 for constant expressions).
func (e *Expr) MaxVar() int {
	switch e.Op {
	case OpConst:
		return 0
	case OpVar:
		return e.Var + 1
	case OpNot:
		return e.Left.MaxVar()
	default:
		l, r := e.Left.MaxVar(), e.Right.MaxVar()
		if l > r {
			return l
		}
		return r
	}
}

// TT elaborates the expression over n variables (n ≥ MaxVar).
func (e *Expr) TT(n int) (truthtab.TT, error) {
	if need := e.MaxVar(); n < need {
		return truthtab.TT{}, fmt.Errorf("bexpr: expression needs %d variables, given %d", need, n)
	}
	return e.tt(n), nil
}

func (e *Expr) tt(n int) truthtab.TT {
	switch e.Op {
	case OpConst:
		if e.Val {
			return truthtab.One(n)
		}
		return truthtab.Zero(n)
	case OpVar:
		return truthtab.Var(n, e.Var)
	case OpNot:
		return e.Left.tt(n).Not()
	case OpAnd:
		return e.Left.tt(n).And(e.Right.tt(n))
	case OpOr:
		return e.Left.tt(n).Or(e.Right.tt(n))
	case OpXor:
		return e.Left.tt(n).Xor(e.Right.tt(n))
	}
	panic("bexpr: unknown op")
}

// Parse parses an expression.
func Parse(s string) (*Expr, error) {
	p := &parser{src: s}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("bexpr: unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}
	return e, nil
}

// ParseTT parses an expression and elaborates it over exactly the
// variables it mentions.
func ParseTT(s string) (truthtab.TT, int, error) {
	e, err := Parse(s)
	if err != nil {
		return truthtab.TT{}, 0, err
	}
	n := e.MaxVar()
	t, err := e.TT(n)
	return t, n, err
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseOr() (*Expr, error) {
	l, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.peek() == '+' {
		p.pos++
		r, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		l = &Expr{Op: OpOr, Left: l, Right: r}
	}
	return l, nil
}

func (p *parser) parseXor() (*Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == '^' {
		p.pos++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Expr{Op: OpXor, Left: l, Right: r}
	}
	return l, nil
}

// parseAnd handles explicit '*' and implicit juxtaposition: a factor
// starts with 'x', 'X', '0', '1', '(', or '!'.
func (p *parser) parseAnd() (*Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		c := p.peek()
		if c == '*' {
			p.pos++
			c = p.peek()
		} else if !isFactorStart(c) {
			return l, nil
		}
		if !isFactorStart(c) {
			return nil, fmt.Errorf("bexpr: expected operand at offset %d", p.pos)
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &Expr{Op: OpAnd, Left: l, Right: r}
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isFactorStart(c byte) bool {
	return c == 'x' || c == 'X' || c == '0' || c == '1' || c == '(' || c == '!'
}

func (p *parser) parseFactor() (*Expr, error) {
	if p.peek() == '!' {
		p.pos++
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &Expr{Op: OpNot, Left: e}, nil
	}
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.peek() == '\'' {
		p.pos++
		e = &Expr{Op: OpNot, Left: e}
	}
	return e, nil
}

func (p *parser) parseAtom() (*Expr, error) {
	switch c := p.peek(); {
	case c == '0':
		p.pos++
		return &Expr{Op: OpConst, Val: false}, nil
	case c == '1':
		p.pos++
		return &Expr{Op: OpConst, Val: true}, nil
	case c == '(':
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("bexpr: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return e, nil
	case c == 'x' || c == 'X':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == start {
			return nil, fmt.Errorf("bexpr: variable needs an index at offset %d", start)
		}
		idx, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil || idx < 1 || idx > truthtab.MaxVars {
			return nil, fmt.Errorf("bexpr: bad variable index %q", p.src[start:p.pos])
		}
		return &Expr{Op: OpVar, Var: idx - 1}, nil
	case c == 0:
		return nil, fmt.Errorf("bexpr: unexpected end of input")
	default:
		return nil, fmt.Errorf("bexpr: unexpected character %q at offset %d", c, p.pos)
	}
}

// String renders the expression with minimal parentheses.
func (e *Expr) String() string {
	var render func(e *Expr, prec int) string
	render = func(e *Expr, prec int) string {
		var s string
		var myPrec int
		switch e.Op {
		case OpConst:
			if e.Val {
				return "1"
			}
			return "0"
		case OpVar:
			return fmt.Sprintf("x%d", e.Var+1)
		case OpNot:
			inner := render(e.Left, 3)
			if e.Left.Op == OpVar || e.Left.Op == OpConst {
				return inner + "'"
			}
			return "(" + inner + ")'"
		case OpAnd:
			myPrec = 2
			l, r := render(e.Left, myPrec), render(e.Right, myPrec+1)
			// Juxtaposition would merge a trailing index with a leading
			// constant ("x1" "0" → "x10"), so spell that product out.
			if isDigit(l[len(l)-1]) && isDigit(r[0]) {
				s = l + "*" + r
			} else {
				s = l + r
			}
		case OpXor:
			myPrec = 1
			s = render(e.Left, myPrec) + " ^ " + render(e.Right, myPrec+1)
		case OpOr:
			myPrec = 0
			s = render(e.Left, myPrec) + " + " + render(e.Right, myPrec+1)
		}
		if myPrec < prec {
			return "(" + s + ")"
		}
		return s
	}
	out := render(e, 0)
	return strings.TrimSpace(out)
}
