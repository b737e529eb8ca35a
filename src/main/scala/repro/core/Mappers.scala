package repro.core

import java.text.Normalizer
import java.util.regex.Pattern

/** The Mapper pool: single-sample in-place text editing OPs (paper Table 1,
  * "Transform specified headers, textual elements; fix messy codes; enable
  * text enhancement"). All are pure, deterministic `String => String`
  * functions run by [[RowProgram]]. Regexes are compiled once per OP
  * instance, since `String.replaceAll`/`matches` compile the pattern on every
  * call. They are body members, so case-class `toString` (and with it
  * `Op.signature` and cache keys) does not change.
  */
object Mappers {

  /** Collapse horizontal whitespace runs, normalize unicode spaces, strip
    * trailing spaces, and bound consecutive blank lines to one.
    */
  final case class WhitespaceNormalizationMapper() extends Mapper {
    val name = "whitespace_normalization_mapper"
    private val unicodeSpaces = Pattern.compile("[\\u00A0\\u1680\\u2000-\\u200B\\u202F\\u205F\\u3000\\uFEFF]")
    private val blanks = Pattern.compile("[ \\t]+")
    private val blankLines = Pattern.compile("\n{3,}")
    def mapText(text: String): String = {
      val lines = unicodeSpaces.matcher(text).replaceAll(" ")
        .split("\n", -1).map(l => blanks.matcher(l).replaceAll(" ").trim)
        .mkString("\n")
      blankLines.matcher(lines).replaceAll("\n\n").trim
    }
  }

  /** Fix messy codes: NFC-normalize, drop control chars (except \n\t), strip
    * the unicode replacement char and common mojibake artifacts.
    */
  final case class FixUnicodeMapper() extends Mapper {
    val name = "fix_unicode_mapper"
    private val controls = Pattern.compile("[\\p{Cntrl}&&[^\n\t]]")
    private val apostrophe = Pattern.compile("â€™")
    private val quotes = Pattern.compile("â€œ|â€")
    def mapText(text: String): String = {
      val nfc = Normalizer.normalize(text, Normalizer.Form.NFC)
      val clean = controls.matcher(nfc.replace("�", "")).replaceAll("")
      quotes.matcher(apostrophe.matcher(clean).replaceAll("'")).replaceAll("\"")
    }
  }

  /** Remove e-mail addresses (PII scrubbing for pre-training corpora). */
  final case class RemoveEmailsMapper(replacement: String = "") extends Mapper {
    val name = "remove_emails_mapper"
    private val re = Pattern.compile("[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}")
    def mapText(text: String): String = re.matcher(text).replaceAll(replacement)
  }

  /** Remove IPv4 addresses (PII scrubbing). */
  final case class RemoveIpAddressesMapper(replacement: String = "") extends Mapper {
    val name = "remove_ip_addresses_mapper"
    private val re = Pattern.compile("\\b(?:(?:25[0-5]|2[0-4]\\d|1?\\d?\\d)\\.){3}(?:25[0-5]|2[0-4]\\d|1?\\d?\\d)\\b")
    def mapText(text: String): String = re.matcher(text).replaceAll(replacement)
  }

  /** Remove http(s)/ftp/www links (web-scrape debris). */
  final case class RemoveLinksMapper(replacement: String = "") extends Mapper {
    val name = "remove_links_mapper"
    private val re = Pattern.compile("(?i)\\b(?:https?://|ftp://|www\\.)[^\\s<>\"]+")
    def mapText(text: String): String = re.matcher(text).replaceAll(replacement)
  }

  /** Strip HTML/XML tags and decode the common entities. */
  final case class RemoveHtmlTagsMapper() extends Mapper {
    val name = "remove_html_tags_mapper"
    private val rewrites: Seq[(Pattern, String)] = Seq(
      "(?s)<(script|style)[^>]*>.*?</\\1>" -> " ", "<[^>]{0,500}>" -> " ",
      "&nbsp;" -> " ", "&amp;" -> "&", "&lt;" -> "<", "&gt;" -> ">", "&quot;" -> "\"", "&#\\d+;" -> "",
    ).map { case (re, to) => Pattern.compile(re) -> to }
    def mapText(text: String): String =
      rewrites.foldLeft(text) { case (t, (re, to)) => re.matcher(t).replaceAll(to) }
  }

  /** Normalize unicode punctuation to its ASCII counterpart. */
  final case class PunctuationNormalizationMapper() extends Mapper {
    val name = "punctuation_normalization_mapper"
    private val table: Map[Char, String] = Map(
      '“' -> "\"", '”' -> "\"", '‘' -> "'", '’' -> "'", '—' -> "-", '–' -> "-",
      '…' -> "...", '«' -> "\"", '»' -> "\"", '、' -> ",", '。' -> ".",
      '，' -> ",", '！' -> "!", '？' -> "?", '：' -> ":", '；' -> ";",
    )
    def mapText(text: String): String = {
      val sb = new StringBuilder(text.length)
      text.foreach(c => sb.append(table.getOrElse(c, c.toString)))
      sb.toString
    }
  }

  /** Lowercase the whole sample. */
  final case class LowercaseMapper() extends Mapper {
    val name = "lowercase_mapper"
    def mapText(text: String): String = text.toLowerCase
  }

  /** Remove a user-supplied character set (e.g. decorative bullets). */
  final case class RemoveSpecificCharsMapper(chars: String = "◆●■►▼▲▴∆▻▷❖♡□") extends Mapper {
    val name = "remove_specific_chars_mapper"
    private val set = chars.toSet
    def mapText(text: String): String = text.filterNot(set.contains)
  }

  /** Drop words longer than `maxLen` (URLs-glued-together, base64 debris). */
  final case class RemoveLongWordsMapper(maxLen: Int = 40) extends Mapper {
    val name = "remove_long_words_mapper"
    private val boundary = Pattern.compile("(?<= )|(?=\\s)")
    private val spaces = Pattern.compile("[ ]{2,}")
    def mapText(text: String): String = {
      val kept = boundary.split(text).filter { tok =>
        tok.isEmpty || tok.forall(Character.isWhitespace) || tok.trim.length <= maxLen
      }.mkString("")
      spaces.matcher(kept).replaceAll(" ")
    }
  }

  /** Remove lines that match any header pattern (LaTeX preamble, markdown
    * header clutter) — the paper's "removal of specific headers".
    */
  final case class RemoveHeaderMapper(
      patterns: Seq[String] = Seq("^\\\\documentclass.*", "^\\\\usepackage.*", "^\\\\title.*",
                                  "^\\\\author.*", "^\\\\maketitle.*", "^#+ .*")
  ) extends Mapper {
    val name = "remove_header_mapper"
    @transient private lazy val compiled = patterns.map(Pattern.compile)
    def mapText(text: String): String =
      text.split("\n", -1).filterNot(l => compiled.exists(_.matcher(l).matches())).mkString("\n")
  }

  /** Remove comment lines by prefix (TeX `%`, C++ `//`, shell `#`). */
  final case class RemoveCommentsMapper(prefixes: Seq[String] = Seq("%", "//")) extends Mapper {
    val name = "remove_comments_mapper"
    def mapText(text: String): String =
      text.split("\n", -1).filterNot(l => prefixes.exists(l.trim.startsWith)).mkString("\n")
  }

  /** Truncate at the bibliography (LaTeX `\begin{thebibliography}` or a
    * trailing `References` heading) — arXiv recipe staple.
    */
  final case class RemoveBibliographyMapper() extends Mapper {
    val name = "remove_bibliography_mapper"
    private val markers = Seq("\\begin{thebibliography}", "\nReferences\n", "\nREFERENCES\n")
    def mapText(text: String): String = {
      val cut = markers.map(text.indexOf).filter(_ >= 0)
      if (cut.isEmpty) text else text.substring(0, cut.min)
    }
  }

  /** Drop table-ish lines: pipe-heavy rows or multi-column runs of spaces. */
  final case class RemoveTableTextMapper(minPipes: Int = 2) extends Mapper {
    val name = "remove_table_text_mapper"
    private val columns = Pattern.compile(".*\\S(\\s{3,}\\S+){3,}.*")
    def mapText(text: String): String =
      text.split("\n", -1).filterNot { l =>
        l.count(_ == '|') >= minPipes || columns.matcher(l).matches()
      }.mkString("\n")
  }

  /** Strip code license/copyright headers: a leading block comment or leading
    * comment lines mentioning copyright/license (paper: code recipes).
    */
  final case class CleanCopyrightMapper() extends Mapper {
    val name = "clean_copyright_mapper"
    private val blockNotice = Pattern.compile("(?s).*(copyright|license).*")
    private val lineNotice = Pattern.compile(".*(copyright|license|all rights reserved).*")
    def mapText(text: String): String = {
      val noBlock =
        if (text.startsWith("/*")) {
          val end = text.indexOf("*/")
          if (end >= 0 && blockNotice.matcher(text.substring(0, end).toLowerCase).matches())
            text.substring(end + 2).dropWhile(_ == '\n')
          else text
        } else text
      val lines = noBlock.split("\n", -1)
      val (head, tail) = lines.span(l => l.trim.startsWith("//") || l.trim.startsWith("#"))
      val keptHead = head.filterNot(l => lineNotice.matcher(l.toLowerCase).matches())
      (keptHead ++ tail).mkString("\n")
    }
  }

  /** Collapse consecutive duplicate lines within a sample (chat-log echo,
    * scraped pagination debris) — an in-document cleanup Mapper, distinct
    * from dataset-level Deduplicators.
    */
  final case class RemoveRepeatedLinesMapper() extends Mapper {
    val name = "remove_repeated_lines_mapper"
    def mapText(text: String): String = {
      val lines = text.split("\n", -1)
      val out = new scala.collection.mutable.ArrayBuffer[String](lines.length)
      var prev: String = null
      lines.foreach { l =>
        if (l.trim.isEmpty || l != prev) out += l
        prev = l
      }
      out.mkString("\n")
    }
  }

  /** Drop whitespace-delimited words containing any of the given substrings
    * (tracker tokens, encoding debris) — a staple of web-text recipes.
    */
  final case class RemoveWordsWithIncorrectSubstringsMapper(
      substrings: Seq[String] = Seq("http", "www", ".com", "href", "//")
  ) extends Mapper {
    val name = "remove_words_with_incorrect_substrings_mapper"
    def mapText(text: String): String =
      text.split("\n", -1).map { line =>
        line.split(" ").filterNot(w => substrings.exists(w.contains)).mkString(" ")
      }.mkString("\n")
  }

  /** Normalize sentence boundaries to one sentence per line (a pre-pass for
    * line-level OPs and sentence-level dedup).
    */
  final case class SentenceSplitMapper() extends Mapper {
    val name = "sentence_split_mapper"
    private val boundary = Pattern.compile("([.!?。])\\s+")
    def mapText(text: String): String = boundary.matcher(text).replaceAll("$1\n")
  }

  /** All built-in mappers with default parameters, registry order. */
  def all: Seq[Mapper] = Seq(
    WhitespaceNormalizationMapper(), FixUnicodeMapper(), RemoveEmailsMapper(),
    RemoveIpAddressesMapper(), RemoveLinksMapper(), RemoveHtmlTagsMapper(),
    PunctuationNormalizationMapper(), LowercaseMapper(), RemoveSpecificCharsMapper(),
    RemoveLongWordsMapper(), RemoveHeaderMapper(), RemoveCommentsMapper(),
    RemoveBibliographyMapper(), RemoveTableTextMapper(), CleanCopyrightMapper(),
    RemoveRepeatedLinesMapper(), RemoveWordsWithIncorrectSubstringsMapper(), SentenceSplitMapper(),
  )
}
