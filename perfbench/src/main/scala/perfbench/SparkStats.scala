package perfbench

import org.apache.spark.scheduler._

/** Spark's own accounting of the traced passes, summed while `on`. Events
  * arrive on the listener-bus thread; callers drain the bus
  * (`PerfbenchBus.drain`) before switching `on` and before reading. */
final class SparkStats extends SparkListener {
  @volatile var on = false

  var jobs, stages, tasks             = 0L
  var runMs, deserMs, schedMs         = 0L
  var cpuNs, resultBytes, spillBytes  = 0L

  private val submitted = collection.mutable.Map.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = if (on) jobs += 1

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    submitted(e.stageInfo.stageId) = e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis())

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    if (on) stages += 1
    submitted.remove(e.stageInfo.stageId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (on) {
    tasks += 1
    // time the task waited between its stage's submission and a free core
    submitted.get(e.stageId).foreach(s => schedMs += math.max(0L, e.taskInfo.launchTime - s))
    Option(e.taskMetrics).foreach { m =>
      runMs += m.executorRunTime
      deserMs += m.executorDeserializeTime
      cpuNs += m.executorCpuTime
      resultBytes += m.resultSize
      spillBytes += m.diskBytesSpilled
    }
  }
}
