package repro.core

import Ast._

/** Hand-rolled recursive-descent parser for the POSIX shell subset used by
  * every script in the paper's evaluation (§6): pipelines, `;`, `&`, `&&`,
  * `||`, `<`/`>` redirections, single/double quotes, `$var` expansion,
  * `x=v` assignments, `for` loops, and `( )` subshells.
  *
  * Other syntax (`if`, `2>`, `>>`, `$(…)`, …) raises [[ParseError]].
  *
  * Grammar (standard precedence, lowest first):
  * {{{
  *   program  := list
  *   list     := andor ((';' | '&' | NL) andor?)*
  *   andor    := pipe (('&&' | '||') pipe)*
  *   pipe     := command ('|' command)*
  *   command  := assign | for | subshell | simple
  * }}}
  */
object Parser {

  final case class ParseError(msg: String, pos: Int)
      extends Exception(s"parse error at $pos: $msg")

  // ---------------------------------------------------------------- lexer

  sealed trait Tok
  case object TPipe   extends Tok
  case object TAmp    extends Tok
  case object TSemi   extends Tok
  case object TAnd    extends Tok
  case object TOr     extends Tok
  case object TLParen extends Tok
  case object TRParen extends Tok
  case object TLt     extends Tok
  case object TGt     extends Tok
  case object TNewl   extends Tok
  final case class TWord(w: Word) extends Tok

  def lex(src: String): List[(Tok, Int)] = {
    val out  = List.newBuilder[(Tok, Int)]
    var i    = 0
    val n    = src.length
    def peek(k: Int = 0): Char = if (i + k < n) src.charAt(i + k) else '\u0000'

    while (i < n) {
      val c = src.charAt(i)
      c match {
        case ' ' | '\t'          => i += 1
        case '#'                 => while (i < n && src.charAt(i) != '\n') i += 1
        case '\n'                => out += ((TNewl, i)); i += 1
        case '|' if peek(1) == '|' => out += ((TOr, i)); i += 2
        case '|'                 => out += ((TPipe, i)); i += 1
        case '&' if peek(1) == '&' => out += ((TAnd, i)); i += 2
        case '&'                 => out += ((TAmp, i)); i += 1
        case ';'                 => out += ((TSemi, i)); i += 1
        case '('                 => out += ((TLParen, i)); i += 1
        case ')'                 => out += ((TRParen, i)); i += 1
        case '<'                 => out += ((TLt, i)); i += 1
        case '>' if peek(1) == '>' => throw ParseError("unsupported append redirection '>>'", i)
        case '>'                 => out += ((TGt, i)); i += 1
        case '\\' if peek(1) == '\n' => i += 2 // line continuation
        case _                   =>
          val start = i
          val parts = List.newBuilder[Word]
          val buf   = new StringBuilder
          def flush(): Unit =
            if (buf.nonEmpty) { parts += Lit(buf.toString); buf.clear() }
          var done = false
          while (i < n && !done) {
            val ch = src.charAt(i)
            ch match {
              case ' ' | '\t' | '\n' | '|' | '&' | ';' | '(' | ')' | '<' | '>' | '#' =>
                done = true
              case '`' => throw ParseError("unsupported command substitution", i)
              case '\\' =>
                if (i + 1 < n) { buf += src.charAt(i + 1); i += 2 }
                else { buf += '\\'; i += 1 }
              case '\'' =>
                val close = src.indexOf('\'', i + 1)
                if (close < 0) throw ParseError("unterminated single quote", i)
                buf ++= src.substring(i + 1, close); i = close + 1
              case '"' =>
                i += 1
                while (i < n && src.charAt(i) != '"') {
                  val dc = src.charAt(i)
                  if (dc == '`' || dc == '$' && i + 1 < n && src.charAt(i + 1) == '(')
                    throw ParseError("unsupported command substitution", i)
                  if (dc == '\\' && i + 1 < n &&
                      "\"\\$`".indexOf(src.charAt(i + 1)) >= 0) {
                    buf += src.charAt(i + 1); i += 2
                  } else if (dc == '$' && i + 1 < n && isVarStart(src.charAt(i + 1))) {
                    flush(); i += 1
                    val (name, j) = readVarName(src, i)
                    parts += VarRef(name); i = j
                  } else { buf += dc; i += 1 }
                }
                if (i >= n) throw ParseError("unterminated double quote", i)
                i += 1
              case '$' if i + 1 < n && src.charAt(i + 1) == '{' =>
                flush()
                val close = src.indexOf('}', i + 2)
                if (close < 0) throw ParseError("unterminated ${", i)
                parts += VarRef(src.substring(i + 2, close)); i = close + 1
              case '$' if i + 1 < n && isVarStart(src.charAt(i + 1)) =>
                flush(); i += 1
                val (name, j) = readVarName(src, i)
                parts += VarRef(name); i = j
              case other =>
                buf += other; i += 1
            }
          }
          flush()
          // `2>x` redirects a file descriptor; `2 >x` passes operand `2`
          if (i < n && (src.charAt(i) == '<' || src.charAt(i) == '>') &&
              src.substring(start, i).forall(_.isDigit))
            throw ParseError("unsupported file-descriptor redirection", start)
          val word = parts.result() match {
            case Nil      => Lit("")
            case w :: Nil => w
            case ps       => Concat(ps)
          }
          out += ((TWord(word), start))
      }
    }
    out.result()
  }

  /** Reserved words outside the subset; `for` consumes its own `do`/`done`. */
  private val Reserved = Set("if", "then", "elif", "else", "fi", "while", "until",
                             "case", "esac", "function", "do", "done", "{", "}", "!")

  private def isVarStart(c: Char): Boolean = c.isLetter || c == '_'
  private def readVarName(s: String, from: Int): (String, Int) = {
    var j = from
    while (j < s.length && (s.charAt(j).isLetterOrDigit || s.charAt(j) == '_')) j += 1
    (s.substring(from, j), j)
  }

  // --------------------------------------------------------------- parser

  def parse(src: String): Node = new P(lex(src)).program()

  private final class P(tokens: List[(Tok, Int)]) {
    private var toks = tokens

    private def peek: Option[Tok] = toks.headOption.map(_._1)
    private def pos: Int          = toks.headOption.map(_._2).getOrElse(-1)
    private def advance(): Tok    = { val t = toks.head._1; toks = toks.tail; t }
    private def expect(t: Tok, what: String): Unit =
      if (peek.contains(t)) advance()
      else throw ParseError(s"expected $what, got $peek", pos)
    private def skipNewlines(): Unit =
      while (peek.contains(TNewl)) advance()

    def program(): Node = {
      skipNewlines()
      if (toks.isEmpty) Noop
      else {
        val n = list()
        skipNewlines()
        if (toks.nonEmpty) throw ParseError(s"trailing tokens: $peek", pos)
        n
      }
    }

    /** list := andor ((';' | '&' | NL) andor?)* */
    def list(): Node = {
      var acc = andor()
      var loop = true
      while (loop) peek match {
        case Some(TSemi) | Some(TNewl) =>
          advance(); skipNewlines()
          if (atListEnd) loop = false
          else acc = Semi(acc, andor())
        case Some(TAmp) =>
          advance(); skipNewlines()
          if (atListEnd) { acc = Amp(acc, Noop); loop = false }
          else acc = Amp(acc, andor())
        case _ => loop = false
      }
      acc
    }

    private def atListEnd: Boolean = peek match {
      case None          => true
      case Some(TRParen) => true
      case Some(TWord(Lit(k))) => k == "done" || k == "do" // loop keywords
      case _             => false
    }

    def andor(): Node = {
      var acc = pipe()
      var loop = true
      while (loop) peek match {
        case Some(TAnd) => advance(); skipNewlines(); acc = And(acc, pipe())
        case Some(TOr)  => advance(); skipNewlines(); acc = Or(acc, pipe())
        case _          => loop = false
      }
      acc
    }

    def pipe(): Node = {
      val stages = List.newBuilder[Node]
      stages += command()
      while (peek.contains(TPipe)) { advance(); skipNewlines(); stages += command() }
      stages.result() match {
        case one :: Nil => one
        case many       => Pipe(many)
      }
    }

    def command(): Node = peek match {
      case Some(TWord(Lit(k))) if Reserved(k) =>
        throw ParseError(s"unsupported compound command '$k'", pos)
      case Some(TLParen) =>
        advance(); skipNewlines()
        val body = list()
        expect(TRParen, ")")
        Subshell(body)
      case Some(TWord(Lit("for"))) => forLoop()
      case Some(TWord(Lit(s))) if s.matches("[A-Za-z_][A-Za-z0-9_]*=.*") =>
        advance()
        val eq = s.indexOf('=')
        Assign(s.substring(0, eq), Lit(s.substring(eq + 1)))
      case Some(TWord(Concat(Lit(s) :: rest))) if s.matches("[A-Za-z_][A-Za-z0-9_]*=.*") =>
        advance()
        val eq   = s.indexOf('=')
        val tail = s.substring(eq + 1)
        val parts = (if (tail.isEmpty) Nil else List(Lit(tail))) ++ rest
        Assign(s.substring(0, eq), parts match {
          case Nil      => Lit("")
          case w :: Nil => w
          case ps       => Concat(ps)
        })
      case Some(TWord(_)) => simple()
      case other => throw ParseError(s"expected command, got $other", pos)
    }

    private def forLoop(): Node = {
      advance() // for
      val varName = peek match {
        case Some(TWord(Lit(v))) => advance(); v
        case other => throw ParseError(s"expected loop variable, got $other", pos)
      }
      peek match {
        case Some(TWord(Lit("in"))) => advance()
        case other => throw ParseError(s"expected 'in', got $other", pos)
      }
      val items = List.newBuilder[Word]
      var loop = true
      while (loop) peek match {
        case Some(TWord(w)) => advance(); items += w
        case Some(TSemi) | Some(TNewl) => advance(); skipNewlines(); loop = false
        case other => throw ParseError(s"expected loop items, got $other", pos)
      }
      peek match {
        case Some(TWord(Lit("do"))) => advance(); skipNewlines()
        case other => throw ParseError(s"expected 'do', got $other", pos)
      }
      val body = list()
      skipNewlines()
      peek match {
        case Some(TWord(Lit("done"))) => advance()
        case other => throw ParseError(s"expected 'done', got $other", pos)
      }
      For(varName, items.result().flatMap(expandBraceRange), body)
    }

    /** Expand `{2015..2019}` brace ranges in loop items (Fig. 2 uses one). */
    private def expandBraceRange(w: Word): List[Word] = w match {
      case Lit(s) =>
        val m = "\\{(\\d+)\\.\\.(\\d+)\\}".r.findFirstMatchIn(s)
        m match {
          case Some(mm) =>
            val (lo, hi) = (mm.group(1).toInt, mm.group(2).toInt)
            (lo to hi).toList.map(v => Lit(s.substring(0, mm.start) + v + s.substring(mm.end)))
          case None => List(w)
        }
      case other => List(other)
    }

    private def simple(): Node = {
      val words  = List.newBuilder[Word]
      val redirs = List.newBuilder[Redir]
      var loop = true
      var count = 0
      while (loop) peek match {
        case Some(TWord(Lit(k))) if count > 0 && (k == "do" || k == "done") =>
          loop = false
        case Some(TWord(w)) => advance(); words += w; count += 1
        case Some(TLt)   => advance(); redirs += RedirIn(word("redirect target"))
        case Some(TGt)   => advance(); redirs += RedirOut(word("redirect target"))
        case _ => loop = false
      }
      words.result() match {
        case name :: args => Cmd(name, args, redirs.result())
        case Nil => throw ParseError("empty command", pos)
      }
    }

    private def word(what: String): Word = peek match {
      case Some(TWord(w)) => advance(); w
      case other => throw ParseError(s"expected $what, got $other", pos)
    }
  }
}
