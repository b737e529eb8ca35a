package repro.core

import org.yaml.snakeyaml.Yaml
import scala.jdk.CollectionConverters._

/** Typed access into the loosely-typed parameter maps parsed from YAML
  * recipes (numbers arrive as java.lang.Integer/Double, lists as
  * java.util.List, …). Records the keys it is asked for, so that a builder
  * can be checked for parameters it never read (typos).
  */
final case class OpParams(raw: Map[String, Any]) {
  private val asked = scala.collection.mutable.LinkedHashSet.empty[String]

  /** Keys the builder asked for so far, in order. */
  def read: Seq[String] = asked.toSeq

  /** Keys of `raw` no accessor has read. */
  def unread: Set[String] = raw.keySet -- asked

  private def get(key: String): Option[Any] = { asked += key; raw.get(key) }

  def int(key: String, default: Int): Int = get(key).map {
    case n: Number => n.intValue
    case s: String => s.toInt
    case other     => sys.error(s"param $key: expected int, got $other")
  }.getOrElse(default)

  def long(key: String, default: Long): Long = get(key).map {
    case n: Number => n.longValue
    case s: String => s.toLong
    case other     => sys.error(s"param $key: expected long, got $other")
  }.getOrElse(default)

  def double(key: String, default: Double): Double = get(key).map {
    case n: Number => n.doubleValue
    case s: String => s.toDouble
    case other     => sys.error(s"param $key: expected double, got $other")
  }.getOrElse(default)

  def string(key: String, default: String): String = get(key).map(_.toString).getOrElse(default)

  def strings(key: String, default: Seq[String]): Seq[String] = get(key).map {
    case l: java.util.List[_] => l.asScala.map(_.toString).toSeq
    case l: Seq[_]            => l.map(_.toString)
    case s: String            => s.split(",").map(_.trim).toSeq
    case other                => sys.error(s"param $key: expected list, got $other")
  }.getOrElse(default)
}

/** The OP registry: snake_case name → builder, category, and usage tags
  * (paper Sec. 4.3: OPs are "labeled with typical usage scenarios"). New OPs
  * register here once and become available to every recipe — the paper's
  * "advanced extension" path.
  */
object OpRegistry {
  final case class Spec(
      name: String,
      category: String, // formatter | mapper | filter | deduplicator
      usageTags: Seq[String],
      build: OpParams => Op,
  )

  import Mappers._, Filters._, Deduplicators._

  private def spec(name: String, category: String, tags: Seq[String])(b: OpParams => Op) =
    name -> Spec(name, category, tags, b)

  val specs: Map[String, Spec] = Map(
    // ---- formatters ----
    spec("jsonl_formatter", "formatter", Seq("general"))(p =>
      Formatters.JsonlFormatter(p.string("path", ""), p.string("text_key", "text"), p.strings("meta_keys", Nil))),
    spec("csv_formatter", "formatter", Seq("general", "financial"))(p =>
      Formatters.CsvFormatter(p.string("path", ""), p.string("text_col", "text"), p.strings("meta_cols", Nil))),
    spec("text_formatter", "formatter", Seq("general"))(p =>
      Formatters.TextFormatter(p.string("path", ""), p.string("whole_file", "true").toBoolean)),
    spec("parquet_formatter", "formatter", Seq("general"))(p => Formatters.ParquetFormatter(p.string("path", ""))),
    // ---- mappers ----
    spec("remove_words_with_incorrect_substrings_mapper", "mapper", Seq("web"))(p =>
      RemoveWordsWithIncorrectSubstringsMapper(p.strings("substrings", Seq("http", "www", ".com", "href", "//")))),
    spec("sentence_split_mapper", "mapper", Seq("general"))(_ => SentenceSplitMapper()),
    spec("whitespace_normalization_mapper", "mapper", Seq("general"))(_ => WhitespaceNormalizationMapper()),
    spec("fix_unicode_mapper", "mapper", Seq("general"))(_ => FixUnicodeMapper()),
    spec("remove_emails_mapper", "mapper", Seq("general", "pii"))(p => RemoveEmailsMapper(p.string("replacement", ""))),
    spec("remove_ip_addresses_mapper", "mapper", Seq("general", "pii"))(p => RemoveIpAddressesMapper(p.string("replacement", ""))),
    spec("remove_links_mapper", "mapper", Seq("general", "web"))(p => RemoveLinksMapper(p.string("replacement", ""))),
    spec("remove_html_tags_mapper", "mapper", Seq("web"))(_ => RemoveHtmlTagsMapper()),
    spec("punctuation_normalization_mapper", "mapper", Seq("general", "zh"))(_ => PunctuationNormalizationMapper()),
    spec("lowercase_mapper", "mapper", Seq("general"))(_ => LowercaseMapper()),
    spec("remove_specific_chars_mapper", "mapper", Seq("general"))(p => RemoveSpecificCharsMapper(p.string("chars", "◆●■►▼▲▴∆▻▷❖♡□"))),
    spec("remove_long_words_mapper", "mapper", Seq("general", "web"))(p => RemoveLongWordsMapper(p.int("max_len", 40))),
    spec("remove_header_mapper", "mapper", Seq("latex"))(p => RemoveHeaderMapper(p.strings("patterns", RemoveHeaderMapper().patterns))),
    spec("remove_comments_mapper", "mapper", Seq("latex", "code"))(p => RemoveCommentsMapper(p.strings("prefixes", Seq("%", "//")))),
    spec("remove_bibliography_mapper", "mapper", Seq("latex"))(_ => RemoveBibliographyMapper()),
    spec("remove_table_text_mapper", "mapper", Seq("latex", "financial"))(p => RemoveTableTextMapper(p.int("min_pipes", 2))),
    spec("clean_copyright_mapper", "mapper", Seq("code"))(_ => CleanCopyrightMapper()),
    spec("remove_repeated_lines_mapper", "mapper", Seq("web", "dialog"))(_ => RemoveRepeatedLinesMapper()),
    // ---- filters ----
    spec("text_length_filter", "filter", Seq("general"))(p => TextLengthFilter(p.int("min_len", 10), p.int("max_len", 1000000))),
    spec("word_count_filter", "filter", Seq("general"))(p => WordCountFilter(p.int("min_words", 5), p.int("max_words", 1000000))),
    spec("avg_word_length_filter", "filter", Seq("general"))(p => AvgWordLengthFilter(p.double("min", 2.0), p.double("max", 12.0))),
    spec("lines_count_filter", "filter", Seq("general"))(p => LinesCountFilter(p.int("min", 1), p.int("max", 100000))),
    spec("max_line_length_filter", "filter", Seq("code", "web"))(p => MaxLineLengthFilter(p.int("min", 0), p.int("max", 5000))),
    spec("avg_line_length_filter", "filter", Seq("code", "web"))(p => AvgLineLengthFilter(p.double("min", 5.0), p.double("max", 2000.0))),
    spec("alphanumeric_ratio_filter", "filter", Seq("general"))(p => AlphanumericRatioFilter(p.double("min", 0.6))),
    spec("whitespace_ratio_filter", "filter", Seq("general"))(p => WhitespaceRatioFilter(p.double("max", 0.5))),
    spec("special_char_ratio_filter", "filter", Seq("general"))(p => SpecialCharRatioFilter(p.double("max", 0.25))),
    spec("char_repetition_filter", "filter", Seq("general"))(p => CharRepetitionFilter(p.int("n", 10), p.double("max", 0.2))),
    spec("word_repetition_filter", "filter", Seq("general"))(p => WordRepetitionFilter(p.int("n", 5), p.double("max", 0.3))),
    spec("stopword_ratio_filter", "filter", Seq("en"))(p => StopwordRatioFilter(p.double("min", 0.1))),
    spec("flagged_words_filter", "filter", Seq("general", "toxicity"))(p => FlaggedWordsFilter(p.double("max", 0.01))),
    spec("language_score_filter", "filter", Seq("en", "zh"))(p => LanguageScoreFilter(p.string("lang", "en"), p.double("min", 0.5))),
    spec("perplexity_filter", "filter", Seq("general", "model"))(p => PerplexityFilter(p.double("max_ppl", 1500.0))),
    spec("word_entropy_filter", "filter", Seq("general"))(p => WordEntropyFilter(p.double("min", 1.5), p.double("max", 12.0))),
    spec("duplicate_line_ratio_filter", "filter", Seq("web"))(p => DuplicateLineRatioFilter(p.double("max", 0.3))),
    spec("duplicate_paragraph_ratio_filter", "filter", Seq("web"))(p => DuplicateParagraphRatioFilter(p.double("max", 0.3))),
    spec("numeric_ratio_filter", "filter", Seq("financial"))(p => NumericRatioFilter(p.double("max", 0.3))),
    spec("token_count_filter", "filter", Seq("general", "code"))(p => TokenCountFilter(p.int("min", 5), p.int("max", 1000000), p.string("tokenizer", "standard"))),
    spec("symbol_to_word_ratio_filter", "filter", Seq("web"))(p => SymbolToWordRatioFilter(p.double("max", 0.4))),
    spec("ellipsis_line_ratio_filter", "filter", Seq("web"))(p => EllipsisLineRatioFilter(p.double("max", 0.3))),
    spec("bullet_line_ratio_filter", "filter", Seq("web"))(p => BulletLineRatioFilter(p.double("max", 0.9))),
    spec("meta_field_filter", "filter", Seq("general"))(p => MetaFieldFilter(p.string("key", "language"), p.strings("allowed", Seq("EN")))),
    spec("suffix_filter", "filter", Seq("code"))(p => SuffixFilter(p.strings("suffixes", Seq(".py", ".scala", ".cpp", ".java")))),
    spec("stars_count_filter", "filter", Seq("code"))(p => StarsCountFilter(p.long("min_stars", 10L))),
    // ---- deduplicators ----
    spec("exact_doc_deduplicator", "deduplicator", Seq("general"))(_ => ExactDocDeduplicator()),
    spec("paragraph_deduplicator", "deduplicator", Seq("web"))(_ => ParagraphDeduplicator()),
    spec("minhash_deduplicator", "deduplicator", Seq("general"))(p =>
      MinHashDeduplicator(p.int("num_perm", 128), p.int("bands", 16), p.int("shingle", 3), p.double("jaccard", 0.7), p.int("seed", 42))),
    spec("simhash_deduplicator", "deduplicator", Seq("general"))(p => SimHashDeduplicator(p.int("hamming_max", 3))),
  )

  /** Build an OP; an unknown OP name or a parameter the OP does not read is
    * an error (typos must not silently run with defaults).
    */
  def build(name: String, params: Map[String, Any]): Op = {
    val spec = specs.getOrElse(name,
      throw new IllegalArgumentException(s"unknown OP '$name'; known: ${specs.keys.toSeq.sorted.mkString(", ")}"))
    val p = OpParams(params)
    val op = spec.build(p)
    require(p.unread.isEmpty,
      s"unknown parameter(s) ${p.unread.toSeq.sorted.mkString(", ")} for OP '$name'; known: ${p.read.mkString(", ")}")
    op
  }

  def size: Int = specs.size
}

/** A data recipe: the end-to-end processing configuration as data (paper
  * Sec. 6.1). Parsed from YAML of the shape
  *
  * {{{
  * name: my-recipe
  * ops:
  *   - whitespace_normalization_mapper
  *   - text_length_filter: {min_len: 20, max_len: 40000}
  * }}}
  *
  * `withOverrides` implements jsonargparse-style dotted incremental
  * modification (`text_length_filter.min_len=30`) so command lines, files and
  * defaults mix — the paper's "all-in-one configuration" principle.
  */
final case class Recipe(name: String, opSpecs: Seq[(String, Map[String, Any])]) {
  def ops: Seq[Op] = opSpecs.map { case (n, p) => OpRegistry.build(n, p) }

  def pipeline(fuse: Boolean = false, reorder: Boolean = false,
               tracer: Option[Tracer] = None, cache: Option[CacheManager] = None): Pipeline =
    Pipeline(ops, fuse, reorder, tracer, cache, inputId = name)

  /** Apply `opName.param=value` overrides; unknown OP names and parameters
    * are an error (typos must not silently no-op).
    */
  def withOverrides(overrides: Seq[String]): Recipe = {
    val parsed = overrides.map { o =>
      val Array(path, value) = o.split("=", 2)
      val Array(op, param)   = path.split("\\.", 2)
      (op, param, value)
    }
    parsed.foreach { case (op, _, _) =>
      require(opSpecs.exists(_._1 == op), s"override targets unknown OP '$op' in recipe '$name'")
    }
    val newSpecs = opSpecs.map { case (n, params) =>
      val mine = parsed.filter(_._1 == n)
      n -> mine.foldLeft(params) { case (ps, (_, k, v)) => ps + (k -> v) }
    }
    copy(opSpecs = newSpecs).validated
  }

  /** Build every OP once so bad names and parameters fail now, not at run time. */
  private def validated: Recipe = {
    opSpecs.foreach { case (n, p) => OpRegistry.build(n, p) }
    this
  }

  /** Drop an OP ("subtraction" recipe editing). */
  def without(opName: String): Recipe = copy(opSpecs = opSpecs.filterNot(_._1 == opName))

  /** Append an OP ("addition" recipe editing). */
  def add(opName: String, params: Map[String, Any] = Map.empty): Recipe =
    copy(opSpecs = opSpecs :+ (opName -> params)).validated
}

object Recipe {
  /** Parse a recipe from YAML text. */
  def fromYaml(yaml: String): Recipe = {
    val root = new Yaml().load[java.util.Map[String, Object]](yaml)
    require(root != null && root.containsKey("ops"), "recipe yaml needs an 'ops' list")
    val name = Option(root.get("name")).map(_.toString).getOrElse("recipe")
    val ops = root.get("ops").asInstanceOf[java.util.List[Object]].asScala.toSeq.map {
      case s: String => s -> Map.empty[String, Any]
      case m: java.util.Map[_, _] =>
        val e = m.asInstanceOf[java.util.Map[String, Object]].asScala
        require(e.size == 1, s"each ops entry must be one OP, got ${e.keys.mkString(",")}")
        val (opName, params) = e.head
        val ps = params match {
          case null                 => Map.empty[String, Any]
          case pm: java.util.Map[_, _] => pm.asInstanceOf[java.util.Map[String, Object]].asScala.toMap.asInstanceOf[Map[String, Any]]
          case other                => sys.error(s"params of $opName must be a map, got $other")
        }
        opName -> ps
      case other => sys.error(s"bad ops entry: $other")
    }
    // Fail fast on unknown OPs and parameters at parse time, not first run.
    Recipe(name, ops).validated
  }

  def fromFile(path: String): Recipe =
    fromYaml(new String(java.nio.file.Files.readAllBytes(java.nio.file.Paths.get(path)), "UTF-8"))
}
