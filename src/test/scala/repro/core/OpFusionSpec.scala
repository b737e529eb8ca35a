package repro.core

import java.util.concurrent.atomic.AtomicLong
import repro.{SparkSpec, TestData}
import repro.core.Filters._
import repro.core.Mappers._

/** Identity mapper that counts its `mapText` calls (local mode: the tasks run
  * in the test JVM, so the static counter sees them).
  */
final case class CountingMapper() extends Mapper {
  val name = "counting_mapper"
  def mapText(text: String): String = { CountingMapper.calls.incrementAndGet(); text }
}

object CountingMapper {
  val calls = new AtomicLong(0L)
}

class OpFusionSpec extends SparkSpec with TestData {

  private val wordsFilters: Seq[Filter] = Seq(
    WordCountFilter(minWords = 2), StopwordRatioFilter(0.05), FlaggedWordsFilter(0.2))

  test("plan fuses consecutive filters sharing the Words context") {
    val planned = OpFusion.plan(wordsFilters, fuse = true, reorder = false)
    assert(planned.size == 1)
    assert(planned.head.isInstanceOf[FusedFilter])
    assert(planned.head.asInstanceOf[FusedFilter].members.size == 3)
  }

  test("plan keeps context-free filters standalone") {
    val ops = Seq(TextLengthFilter(1), WordCountFilter(1), StopwordRatioFilter(0.0))
    val planned = OpFusion.plan(ops, fuse = true, reorder = false)
    assert(planned.count(_.isInstanceOf[FusedFilter]) == 1)
    assert(planned.exists { case f: Filter => f.name == "text_length_filter"; case _ => false })
  }

  test("mappers and deduplicators are fusion barriers") {
    val ops: Seq[Op] = Seq(WordCountFilter(1), LowercaseMapper(), StopwordRatioFilter(0.0))
    val planned = OpFusion.plan(ops, fuse = true, reorder = true)
    assert(planned.size == 3) // nothing fused across the mapper
    assert(planned(1).isInstanceOf[Mapper])
  }

  test("reordering sorts a filter run by cost, stable") {
    val ops: Seq[Op] = Seq(PerplexityFilter(1e9), TextLengthFilter(1), WordCountFilter(1))
    val planned = OpFusion.plan(ops, fuse = false, reorder = true)
    assert(planned.map(_.asInstanceOf[Filter].cost) == Seq(0, 1, 2))
  }

  test("fused filter computes the union of stats keys") {
    val fused = FusedFilter(wordsFilters)
    val stats = fused.computeStatsRow(new TextContext("the cat and the dog sat"))
    assert(stats.keySet == Set("num_words", "stopword_ratio", "flagged_ratio"))
  }

  test("fused keep is the conjunction of member keeps") {
    val fused = FusedFilter(Seq(WordCountFilter(minWords = 3), FlaggedWordsFilter(0.0)))
    val good = fused.computeStatsRow(new TextContext("three plain words"))
    val bad  = fused.computeStatsRow(new TextContext("damn damn damn words"))
    assert(fused.keepRow(good))
    assert(!fused.keepRow(bad)) // flagged ratio trips even though word count passes
  }

  test("fused pipeline output equals unfused output exactly") {
    val docs = (0 until 60).map { i =>
      if (i % 5 == 0) "tiny"
      else if (i % 7 == 0) "damn hell and some long enough words for all the other filters to pass"
      else s"the document number $i is a perfectly fine sentence with the usual words in it"
    }
    val df = docsDf(docs: _*)
    val ops = Recipes14()
    val plain = Pipeline(ops).run(df)
    val fused = Pipeline(ops, fuse = true, reorder = true).run(df)
    assert(ids(plain) == ids(fused))
    assert(texts(plain.orderBy(Schema.Id)) == texts(fused.orderBy(Schema.Id)))
  }

  test("fusion reduces tokenizer invocations") {
    val df = docsDf((0 until 30).map(i => s"the sample number $i with several common words to tokenize"): _*)
    val filters: Seq[Op] = Seq(WordCountFilter(2), StopwordRatioFilter(0.05), WordRepetitionFilter(5, 0.5))
    Tokenizers.wordCalls.set(0)
    Pipeline(filters).run(df).count()
    val plainCalls = Tokenizers.wordCalls.get()
    Tokenizers.wordCalls.set(0)
    Pipeline(filters, fuse = true).run(df).count()
    val fusedCalls = Tokenizers.wordCalls.get()
    assert(fusedCalls < plainCalls, s"fused=$fusedCalls plain=$plainCalls")
  }

  test("reordered-only pipeline output equals plain output") {
    val df = docsDf((0 until 40).map(i => s"doc $i with the usual words and content here"): _*)
    val ops: Seq[Op] = Seq(PerplexityFilter(5000), TextLengthFilter(10), StopwordRatioFilter(0.05))
    val a = Pipeline(ops).run(df)
    val b = Pipeline(ops, reorder = true).run(df)
    assert(ids(a) == ids(b))
  }

  test("a mapper runs once per row in a mapper→8-filter segment") {
    val docs = (0 until 40).map(i =>
      if (i % 4 == 0) s"short $i" else s"the document number $i is a plain sentence with the usual words in it")
    val filters = repro.exp.Recipes.fusion14.ops.collect { case f: Filter => f }
    assert(filters.size == 8)
    CountingMapper.calls.set(0L)
    // Checkpointed, like a file source: over a local relation the optimizer
    // evaluates projections eagerly, once per row, which would hide duplication.
    val df = docsDf(docs: _*).localCheckpoint(true)
    val kept = Pipeline(CountingMapper() +: filters).run(df).count()
    assert(kept > 0 && kept < docs.size)
    assert(CountingMapper.calls.get() == docs.size, s"${CountingMapper.calls.get()} mapText calls for ${docs.size} rows")
  }

  test("fused dj-pretrain makes exactly one tokenizer call per input row") {
    // Long, plain English: every row passes the cheap filters that the
    // planner puts ahead of the fused Words group, so each row reaches it.
    val docs = (0 until 48).map(i =>
      s"Sample $i is a plain paragraph of English text. It has the words that a quality filter " +
        s"expects to see, and it is long enough to pass the length check, with number $i in it.")
    val df = docsDf(docs: _*).localCheckpoint(true)
    Tokenizers.wordCalls.set(0L)
    val kept = repro.exp.Recipes.djPretrain.pipeline(fuse = true, reorder = true).run(df).count()
    assert(kept > 0)
    assert(Tokenizers.wordCalls.get().toDouble / docs.size == 1.0,
      s"${Tokenizers.wordCalls.get()} tokenizer calls for ${docs.size} rows")
  }

  private def Recipes14(): Seq[Op] = Seq(
    FixUnicodeMapper(), WhitespaceNormalizationMapper(),
    TextLengthFilter(10), WordCountFilter(3), StopwordRatioFilter(0.05),
    FlaggedWordsFilter(0.01), WordRepetitionFilter(5, 0.5),
    Deduplicators.ExactDocDeduplicator(),
  )
}
