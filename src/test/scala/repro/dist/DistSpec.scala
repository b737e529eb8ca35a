package repro.dist

import repro.{SparkSpec, TestData}
import repro.core._
import repro.dist.DistExecutor._

class DistSpec extends SparkSpec with TestData {

  private val ops: Seq[Op] = Seq(
    Mappers.LowercaseMapper(), Mappers.WhitespaceNormalizationMapper(),
    Filters.TextLengthFilter(minLen = 8), Deduplicators.ExactDocDeduplicator(),
  )

  private val docs = Seq(
    Doc(0L, "  The   SAME document  ", Map("k" -> "v")),
    Doc(1L, "the same document", Map.empty),
    Doc(2L, "tiny", Map.empty),
    Doc(3L, "A different KEEPER document", Map.empty),
  )

  test("serialize/parse round-trips docs including newlines and meta") {
    val lines = serialize(Seq(Doc(7L, "line1\nline2", Map("a" -> "b", "c" -> "d"))))
    val back = parse(lines.head)
    assert(back.id == 7L && back.text == "line1\nline2" && back.meta == Map("a" -> "b", "c" -> "d"))
  }

  test("serialize/parse round-trips separator, escape and '=' characters") {
    val hostile = "a\u0001b\u0002c=d\\n is not a newline\\\u0001\n\\u0001 end\\"
    val doc = Doc(9L, hostile, Map("k\u0001=" -> "v\u0002=\\", "plain" -> "x=y"))
    val back = parse(serialize(Seq(doc)).head)
    assert(back == doc)
  }

  test("ray-like executor output equals the Spark pipeline output") {
    val lines = serialize(docs)
    val rayOut = RayLikeExecutor.run(lines, ops, nodes = 3).output
    val sparkOut = Pipeline(ops).run(docsDf(docs.map(_.text): _*))
    assert(rayOut.map(_.id).sorted == ids(sparkOut))
    assert(rayOut.sortBy(_.id).map(_.text) == texts(sparkOut.orderBy(Schema.Id)))
  }

  test("beam-like executor output equals ray-like output") {
    val lines = serialize(docs)
    val ray = RayLikeExecutor.run(lines, ops, 2).output.map(_.id).toSet
    val beam = BeamLikeExecutor.run(lines, ops, 2).output.map(_.id).toSet
    assert(ray == beam)
  }

  test("node count does not change the result") {
    val lines = serialize((0 until 50).map(i =>
      Doc(i.toLong, if (i % 4 == 0) "dup dup document body" else s"document number $i body text", Map.empty)))
    val expected = RayLikeExecutor.run(lines, ops, 1).output.map(_.id).toSet
    Seq(2, 4, 8).foreach { n =>
      assert(RayLikeExecutor.run(lines, ops, n).output.map(_.id).toSet == expected, s"nodes=$n")
    }
  }

  test("meta filters apply in the row pipeline") {
    val mops: Seq[Op] = Seq(Filters.MetaFieldFilter("language", Seq("EN")))
    val lines = serialize(Seq(
      Doc(0L, "keep", Map("language" -> "EN")), Doc(1L, "drop", Map("language" -> "ZH"))))
    assert(RayLikeExecutor.run(lines, mops, 2).output.map(_.id) == Seq(0L))
  }
}
