package script

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenType enumerates lexical token classes.
type tokenType int

const (
	tokEOF tokenType = iota
	tokName
	tokNumber
	tokString
	// keywords
	tokAnd
	tokBreak
	tokDo
	tokElse
	tokElseif
	tokEnd
	tokFalse
	tokFor
	tokFunction
	tokIf
	tokIn
	tokLocal
	tokNil
	tokNot
	tokOr
	tokRepeat
	tokReturn
	tokThen
	tokTrue
	tokUntil
	tokWhile
	// symbols
	tokPlus     // +
	tokMinus    // -
	tokStar     // *
	tokSlash    // /
	tokPercent  // %
	tokCaret    // ^
	tokHash     // #
	tokEq       // ==
	tokNe       // ~=
	tokLe       // <=
	tokGe       // >=
	tokLt       // <
	tokGt       // >
	tokAssign   // =
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRBracket // ]
	tokSemi     // ;
	tokColon    // :
	tokComma    // ,
	tokDot      // .
	tokConcat   // ..
	tokEllipsis // ...
)

var keywords = map[string]tokenType{
	"and": tokAnd, "break": tokBreak, "do": tokDo, "else": tokElse,
	"elseif": tokElseif, "end": tokEnd, "false": tokFalse, "for": tokFor,
	"function": tokFunction, "if": tokIf, "in": tokIn, "local": tokLocal,
	"nil": tokNil, "not": tokNot, "or": tokOr, "repeat": tokRepeat,
	"return": tokReturn, "then": tokThen, "true": tokTrue,
	"until": tokUntil, "while": tokWhile,
}

var tokenNames = map[tokenType]string{
	tokEOF: "<eof>", tokName: "name", tokNumber: "number", tokString: "string",
	tokPlus: "+", tokMinus: "-", tokStar: "*", tokSlash: "/", tokPercent: "%",
	tokCaret: "^", tokHash: "#", tokEq: "==", tokNe: "~=", tokLe: "<=",
	tokGe: ">=", tokLt: "<", tokGt: ">", tokAssign: "=", tokLParen: "(",
	tokRParen: ")", tokLBrace: "{", tokRBrace: "}", tokLBracket: "[",
	tokRBracket: "]", tokSemi: ";", tokColon: ":", tokComma: ",",
	tokDot: ".", tokConcat: "..", tokEllipsis: "...",
}

func (t tokenType) String() string {
	if s, ok := tokenNames[t]; ok {
		return s
	}
	for kw, tt := range keywords {
		if tt == t {
			return kw
		}
	}
	return fmt.Sprintf("token(%d)", int(t))
}

// token is one lexical unit with its source position.
type token struct {
	typ  tokenType
	text string  // names, strings (decoded)
	num  float64 // numbers
	line int
}

// SyntaxError describes a compile-time failure with source position.
type SyntaxError struct {
	Chunk string
	Line  int
	Msg   string
	// Err is the classifiable cause, if any (ErrTooDeep).
	Err error
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.Chunk, e.Line, e.Msg)
}

// Unwrap returns the cause, so errors.Is(err, ErrTooDeep) works.
func (e *SyntaxError) Unwrap() error { return e.Err }

type lexer struct {
	chunk string
	src   string
	pos   int
	line  int
}

func newLexer(chunk, src string) *lexer {
	return &lexer{chunk: chunk, src: src, line: 1}
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Chunk: l.chunk, Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for {
		if l.pos >= len(l.src) {
			return token{typ: tokEOF, line: l.line}, nil
		}
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peekByteAt(1) == '-':
			l.pos += 2
			if l.peekByte() == '[' && l.peekByteAt(1) == '[' {
				// Block comment --[[ ... ]]
				l.pos += 2
				if err := l.skipLongBracket(); err != nil {
					return token{}, err
				}
			} else {
				for l.pos < len(l.src) && l.src[l.pos] != '\n' {
					l.pos++
				}
			}
		default:
			return l.scan()
		}
	}
}

func (l *lexer) skipLongBracket() error {
	for l.pos < len(l.src) {
		if l.peekByte() == ']' && l.peekByteAt(1) == ']' {
			l.pos += 2
			return nil
		}
		l.advance()
	}
	return l.errf("unterminated long comment")
}

func (l *lexer) scan() (token, error) {
	line := l.line
	c := l.peekByte()
	switch {
	case isNameStart(c):
		start := l.pos
		for l.pos < len(l.src) && isNameCont(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw, ok := keywords[word]; ok {
			return token{typ: kw, text: word, line: line}, nil
		}
		return token{typ: tokName, text: word, line: line}, nil
	case c >= '0' && c <= '9', c == '.' && isDigit(l.peekByteAt(1)):
		return l.scanNumber(line)
	case c == '"' || c == '\'':
		return l.scanString(line, c)
	case c == '[' && l.peekByteAt(1) == '[':
		return l.scanLongString(line)
	}
	l.advance()
	mk := func(t tokenType) (token, error) { return token{typ: t, line: line}, nil }
	switch c {
	case '+':
		return mk(tokPlus)
	case '-':
		return mk(tokMinus)
	case '*':
		return mk(tokStar)
	case '/':
		return mk(tokSlash)
	case '%':
		return mk(tokPercent)
	case '^':
		return mk(tokCaret)
	case '#':
		return mk(tokHash)
	case '(':
		return mk(tokLParen)
	case ')':
		return mk(tokRParen)
	case '{':
		return mk(tokLBrace)
	case '}':
		return mk(tokRBrace)
	case '[':
		return mk(tokLBracket)
	case ']':
		return mk(tokRBracket)
	case ';':
		return mk(tokSemi)
	case ':':
		return mk(tokColon)
	case ',':
		return mk(tokComma)
	case '=':
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokEq)
		}
		return mk(tokAssign)
	case '~':
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokNe)
		}
		return token{}, l.errf("unexpected character '~'")
	case '<':
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokLe)
		}
		return mk(tokLt)
	case '>':
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokGe)
		}
		return mk(tokGt)
	case '.':
		if l.peekByte() == '.' {
			l.advance()
			if l.peekByte() == '.' {
				l.advance()
				return mk(tokEllipsis)
			}
			return mk(tokConcat)
		}
		return mk(tokDot)
	default:
		return token{}, l.errf("unexpected character %q", string(rune(c)))
	}
}

func (l *lexer) scanNumber(line int) (token, error) {
	start := l.pos
	// Hex literal.
	if l.peekByte() == '0' && (l.peekByteAt(1) == 'x' || l.peekByteAt(1) == 'X') {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		var n float64
		text := l.src[start+2 : l.pos]
		if text == "" {
			return token{}, l.errf("malformed hex literal")
		}
		for i := 0; i < len(text); i++ {
			n = n*16 + float64(hexVal(text[i]))
		}
		return token{typ: tokNumber, num: n, line: line}, nil
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.peekByte() == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		l.pos++
		if c := l.peekByte(); c == '+' || c == '-' {
			l.pos++
		}
		if !isDigit(l.peekByte()) {
			return token{}, l.errf("malformed number near %q", l.src[start:l.pos])
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	text := l.src[start:l.pos]
	n, err := parseNumber(text)
	if err != nil {
		return token{}, l.errf("malformed number %q", text)
	}
	return token{typ: tokNumber, num: n, line: line}, nil
}

func (l *lexer) scanString(line int, quote byte) (token, error) {
	l.advance() // opening quote
	// Fast path: a literal without escapes is a slice of the source.
	for i := l.pos; i < len(l.src) && l.src[i] != '\\' && l.src[i] != '\n'; i++ {
		if l.src[i] == quote {
			text := l.src[l.pos:i]
			l.pos = i + 1
			return token{typ: tokString, text: text, line: line}, nil
		}
	}
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		c := l.advance()
		switch c {
		case quote:
			return token{typ: tokString, text: sb.String(), line: line}, nil
		case '\n':
			return token{}, l.errf("unterminated string")
		case '\\':
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated string")
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case 'a':
				sb.WriteByte(7)
			case 'b':
				sb.WriteByte(8)
			case 'f':
				sb.WriteByte(12)
			case 'v':
				sb.WriteByte(11)
			case '\\', '"', '\'':
				sb.WriteByte(e)
			case '\n':
				sb.WriteByte('\n')
			default:
				if isDigit(e) {
					// Decimal escape \ddd (up to 3 digits).
					n := int(e - '0')
					for i := 0; i < 2 && isDigit(l.peekByte()); i++ {
						n = n*10 + int(l.advance()-'0')
					}
					if n > 255 {
						return token{}, l.errf("decimal escape too large")
					}
					sb.WriteByte(byte(n))
				} else {
					return token{}, l.errf("invalid escape '\\%s'", string(rune(e)))
				}
			}
		default:
			sb.WriteByte(c)
		}
	}
}

// scanLongString handles [[ ... ]] literals, used by the paper for shipping
// multi-line function bodies (Figs. 3, 4, 7). A leading newline immediately
// after [[ is skipped, as in Lua.
func (l *lexer) scanLongString(line int) (token, error) {
	l.pos += 2
	if l.peekByte() == '\n' {
		l.advance()
	}
	start := l.pos
	for l.pos < len(l.src) {
		if l.peekByte() == ']' && l.peekByteAt(1) == ']' {
			text := l.src[start:l.pos]
			l.pos += 2
			return token{typ: tokString, text: text, line: line}, nil
		}
		l.advance()
	}
	return token{}, l.errf("unterminated long string")
}

func isNameStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameCont(c byte) bool { return isNameStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// parseNumber converts a decimal literal. It is strict: no surrounding
// whitespace, no inf/nan words (those would be surprising in source text).
func parseNumber(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !isDigit(c) && c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-' {
			return 0, fmt.Errorf("malformed number")
		}
	}
	return strconv.ParseFloat(s, 64)
}
