package djbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import repro.core.Tokenizers

/** Spark engine counters of one scope, per benchmark span. */
final class SparkCounts {
  var jobs = 0L
  var stages = 0L
  var taskNanos = 0L
  var shuffleWriteBytes = 0L
  var spillBytes = 0L
  var failedTasks = 0L

  def +=(o: SparkCounts): Unit = {
    jobs += o.jobs; stages += o.stages; taskNanos += o.taskNanos
    shuffleWriteBytes += o.shuffleWriteBytes; spillBytes += o.spillBytes; failedTasks += o.failedTasks
  }
}

/** Collects the `spark.*` counters with a `SparkListener` registered for one
  * scope (one workload step or one traced replay) and removed after it.
  *
  * Jobs are attributed to the benchmark span that was open on the thread
  * that submitted them: the span id travels as the local property
  * `djbench.span` into the job's properties. Stages and tasks inherit their
  * job's span. Jobs the benchmark itself runs to count rows carry
  * `djbench.own` and are left out of every count.
  *
  * Listener events arrive asynchronously; `close` runs a marker job and waits
  * until the listener has seen it end, so every earlier event has been seen.
  */
final class Collector(sc: SparkContext) extends SparkListener {
  private val bySpan = new ConcurrentHashMap[String, SparkCounts]()
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val marker = s"djbench-marker-${System.nanoTime()}"
  private val markerDone = new CountDownLatch(1)
  @volatile private var markerJob = -1

  sc.addSparkListener(this)

  private def counts(span: String): SparkCounts = bySpan.computeIfAbsent(span, _ => new SparkCounts)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    if (props.flatMap(p => Option(p.getProperty("djbench.marker"))).contains(marker)) markerJob = e.jobId
    else if (!props.exists(_.getProperty("djbench.own") == "1")) {
      val span = props.flatMap(p => Option(p.getProperty("djbench.span"))).getOrElse("")
      e.stageIds.foreach(stageSpan.put(_, span))
      counts(span).jobs += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) markerDone.countDown()

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageSpan.get(e.stageInfo.stageId)).foreach(s => counts(s).stages += 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageSpan.get(e.stageId)).foreach { s =>
      val c = counts(s)
      if (e.reason != org.apache.spark.Success) c.failedTasks += 1
      Option(e.taskMetrics).foreach { m =>
        c.taskNanos += m.executorRunTime * 1000000L
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }

  /** Wait for all events so far, unregister, and return the counts per span. */
  def close(): Map[String, SparkCounts] = {
    sc.setLocalProperty("djbench.marker", marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty("djbench.marker", null)
    markerDone.await(60, TimeUnit.SECONDS)
    sc.removeSparkListener(this)
    bySpan.asScala.toMap
  }
}

object Collector {
  /** Process CPU time of this JVM (all threads, GC and JIT included). */
  def cpuNanos: Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** Total collection time of all JVM garbage collectors. */
  def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** `Tokenizers.words` calls so far. The counter is a JVM-static; it sees
    * the executors' calls only because the benchmark runs Spark in local
    * mode, where tasks run in this JVM.
    */
  def wordCalls: Long = Tokenizers.wordCalls.get()

  /** Scala UDF expressions in the executed physical plan of `df`. */
  def udfNodes(df: DataFrame): Int = {
    def count(plan: SparkPlan): Int = plan match {
      case a: AdaptiveSparkPlanExec => count(a.executedPlan)
      case p =>
        p.expressions.map(_.collect { case u: ScalaUDF => u }.size).sum +
          p.children.map(count).sum + p.subqueries.map(count).sum
    }
    count(df.queryExecution.executedPlan)
  }

  /** Run `body` with jobs tagged as the benchmark's own (left out of counts). */
  def own[T](sc: SparkContext)(body: => T): T = {
    sc.setLocalProperty("djbench.own", "1")
    try body finally sc.setLocalProperty("djbench.own", null)
  }
}
