package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.functions.{col, udf}

/** Base classes of the standardized OP pool (paper Sec. 4 and Listing 1).
  *
  * Four categories, mirroring Table 1 of the paper:
  *  - [[Formatter]]     dataset-level load/unification into [[Schema]];
  *  - [[Mapper]]        single-sample in-place text editing;
  *  - [[Filter]]        conditional sample removal with the stats computation
  *                      (`computeStats`) decoupled from the boolean decision
  *                      (`process`) — the decoupling the paper highlights so
  *                      the Analyzer can reuse full-dataset statistics;
  *  - [[Deduplicator]]  dataset-level duplicate removal, with fingerprinting
  *                      (`computeHash`) decoupled from removal (`process`).
  *
  * Every OP exposes a row-level pure function alongside its DataFrame form.
  * [[Pipeline]] runs the row-level forms: each maximal run of Mappers,
  * Filters and MetaFilters becomes one [[RowProgram]], and the `apply` of a
  * single row OP is its one-OP program. The distributed-runtime simulator
  * (`repro.dist`) and the reference-equivalence tests call the row-level
  * forms directly. `Filter.computeStats`/`process` stay DataFrame lifts for
  * the Analyzer's decoupled stats path.
  */
sealed trait Op extends Serializable {
  /** snake_case registry name, e.g. `text_length_filter`. */
  def name: String

  /** Stable signature for cache keys: registry name + constructor params.
    * All OPs are case classes, whose `toString` includes every parameter.
    */
  def signature: String = toString

  /** Apply this OP to a unified dataset. */
  def apply(df: DataFrame): DataFrame
}

/** Dataset-level loader/unifier; implementations in [[Formatters]]. */
trait Formatter extends Op {
  def load(spark: org.apache.spark.sql.SparkSession): DataFrame
  /** Formatters are sources; applying one to an existing df unifies it. */
  override def apply(df: DataFrame): DataFrame = Schema.ensure(df)
}

/** Single-sample in-place text editing (paper: "Mappers"). */
trait Mapper extends Op {
  /** Row-level edit; must accept any string including empty. */
  def mapText(text: String): String

  override def apply(df: DataFrame): DataFrame = RowProgram(Seq(this)).run(df)
}

/** Conditional sample removal (paper: "Filters", Listing 1).
  *
  * `computeStats` fills the sample's `stats` map (skipping samples whose
  * stats are already present, so an Analyzer pre-pass is reused rather than
  * recomputed); `process` keeps samples whose stats satisfy `keepRow`.
  */
trait Filter extends Op {
  /** Keys this filter writes into the `stats` map. */
  def statsKeys: Seq[String]

  /** Shareable contexts consumed — drives fusion grouping. */
  def contexts: Set[ContextKey.Value]

  /** Relative cost hint for reordering: 0 = trivial char math, 1 = needs
    * tokenization/lines, 2 = model-backed. (paper: delay expensive OPs)
    */
  def cost: Int = if (contexts.isEmpty) 0 else 1

  /** Row-level stats over a shared context. */
  def computeStatsRow(ctx: TextContext): Map[String, Double]

  /** Row-level decision over this filter's stats entries. */
  def keepRow(stats: Map[String, Double]): Boolean

  def computeStats(df: DataFrame): DataFrame = {
    val keys = statsKeys
    val f = udf { (t: String, s: Map[String, Double]) =>
      val prev = if (s == null) Map.empty[String, Double] else s
      if (keys.forall(prev.contains)) prev
      else prev ++ computeStatsRow(new TextContext(if (t == null) "" else t))
    }
    df.withColumn(Schema.Stats, f(col(Schema.Text), col(Schema.Stats)))
  }

  def process(df: DataFrame): DataFrame = {
    val f = udf((s: Map[String, Double]) => keepRow(if (s == null) Map.empty else s))
    df.filter(f(col(Schema.Stats)))
  }

  override def apply(df: DataFrame): DataFrame = RowProgram(Seq(this)).run(df)
}

/** Filters whose decision depends on `meta`, not text stats (e.g. language
  * tags, GitHub star counts). They take part in reordering as cost-0 OPs.
  */
trait MetaFilter extends Op {
  def keepMeta(meta: Map[String, String]): Boolean
  override def apply(df: DataFrame): DataFrame = RowProgram(Seq(this)).run(df)
}

/** Dataset-level duplicate removal (paper: "Deduplicators", Listing 1). */
trait Deduplicator extends Op {
  /** Internal column the fingerprint is written to. */
  protected val HashCol = "__dj_hash"

  /** Add the fingerprint/signature column(s). */
  def computeHash(df: DataFrame): DataFrame

  /** Remove duplicates given fingerprints; must keep the smallest `id` of
    * each duplicate group so results are deterministic.
    */
  def process(df: DataFrame): DataFrame

  override def apply(df: DataFrame): DataFrame =
    process(computeHash(df)).select(df.columns.map(col).toSeq: _*)
}

/** Utilities shared by OP implementations. */
private[core] object OpUtil {
  /** Deterministic keep-first: one row per `groupCol` value, the one with the
    * minimal `id` (stable across runs for a fixed input).
    */
  def keepFirstBy(df: DataFrame, groupCol: String): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val w = Window.partitionBy(col(groupCol)).orderBy(col(Schema.Id))
    df.withColumn("__dj_rn", F.row_number().over(w))
      .filter(col("__dj_rn") === 1)
      .drop("__dj_rn")
  }
}
