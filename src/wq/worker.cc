#include "wq/worker.h"

#include <cmath>

#include "obs/recorder.h"
#include "pysrc/interp.h"
#include "pysrc/parse_cache.h"
#include "serde/pickle.h"
#include "util/hash.h"
#include "util/strings.h"

namespace lfm::wq {
namespace {

monitor::MonitorOptions monitor_options_for(const TaskMessage& task,
                                            double poll_interval) {
  monitor::MonitorOptions options;
  options.poll_interval = poll_interval;
  // The allocation from the wire becomes enforced LFM limits. Zero/absent
  // dimensions mean unlimited (a whole-node allocation is encoded as the
  // node size, which is still a real cap).
  if (task.allocation.memory_bytes > 0.0) {
    options.limits.memory_bytes = static_cast<int64_t>(task.allocation.memory_bytes);
  }
  if (task.allocation.disk_bytes > 0.0) {
    options.limits.disk_bytes = static_cast<int64_t>(task.allocation.disk_bytes);
  }
  // Put the monitor's span and per-poll resource series on the task's own
  // trace lane rather than the child pid's.
  options.trace_tid = task.task_id;
  return options;
}

void fill_usage(ResultMessage& result, const monitor::ResourceUsage& usage) {
  result.wall_seconds = usage.wall_time;
  result.cores_used = usage.cores;
  result.memory_peak_bytes = usage.max_rss_bytes;
  result.disk_peak_bytes = usage.disk_write_bytes;
}

}  // namespace

ResultMessage LocalWorker::execute_python(const TaskMessage& task,
                                          const FileSet& files) {
  ResultMessage result;
  result.task_id = task.task_id;
  result.trace_id = task.trace_id;

  const auto parts = split_nonempty(task.command_line, ' ');
  if (parts.size() != 4) {
    result.exit_code = -1;
    return result;
  }
  const auto module_it = files.find(parts[1]);
  const auto args_it = files.find(parts[2]);
  const std::string function = parts[3];
  if (module_it == files.end() || args_it == files.end()) {
    result.exit_code = -1;  // missing transferable files
    return result;
  }
  // Read-decode-execute without copying the transferred bytes: the module
  // parses straight off the file buffer through the shared parse cache (the
  // AST, not the source, is what the interpreter runs), and the pickled
  // args decode zero-copy — string/bytes leaves are views into the file
  // bytes, which outlive the whole monitored run. fork() shares the parent
  // address space, so the views stay valid inside the LFM child too.
  const std::string_view module_source(
      reinterpret_cast<const char*>(module_it->second.data()), module_it->second.size());
  std::shared_ptr<const pysrc::Module> module;
  try {
    module = pysrc::parse_module_shared(module_source);
  } catch (const Error& e) {
    // Same shape a parse failure inside the child produced: exception
    // status with the error text shipped as a pickled string payload.
    result.exit_code = 1;
    result.payload = serde::dumps(serde::Value(std::string(e.what())));
    return result;
  }
  const serde::Value args = serde::loads_view(args_it->second);

  // The function runs in the interpreter INSIDE the forked LFM child; its
  // pickled result returns over the monitor's pipe.
  const monitor::TaskFn body = [module = std::move(module),
                                function](const serde::Value& a) {
    std::vector<serde::Value> positional;
    if (a.is_list()) positional = a.as_list();
    return pysrc::run_python_function(module, function, std::move(positional));
  };
  const auto outcome = monitor::run_monitored(
      body, args, monitor_options_for(task, options_.poll_interval));

  fill_usage(result, outcome.usage);
  switch (outcome.status) {
    case monitor::TaskStatus::kSuccess:
      result.exit_code = 0;
      result.payload = serde::dumps(outcome.result);
      break;
    case monitor::TaskStatus::kLimitExceeded:
      result.exit_code = -1;
      result.exhausted = true;
      result.exhausted_resource = outcome.violated_resource;
      break;
    case monitor::TaskStatus::kException: {
      result.exit_code = 1;
      // Ship the exception text back as a pickled string payload.
      result.payload = serde::dumps(serde::Value(outcome.error));
      break;
    }
    case monitor::TaskStatus::kCrashed:
      result.exit_code = -1;
      break;
  }
  return result;
}

ResultMessage LocalWorker::execute(const TaskMessage& task, const FileSet& files) {
  ++tasks_executed_;
  if (obs::Recorder::enabled()) {
    obs::Recorder::global().metrics().counter("worker.tasks_executed").add();
  }
  // The run span on the worker's own host lane: forked LFM included. Its
  // trace id arrives via the caller's TraceScope (WorkerClient sets it per
  // task), so the span joins the submit→dispatch chain minted at the root.
  obs::ScopedSpan span(obs::kPidHost, task.task_id, "lfm.run", "worker");
  if (starts_with(task.command_line, "lfm-pyrun ")) {
    return execute_python(task, files);
  }

  monitor::CommandOptions command_options;
  command_options.monitor = monitor_options_for(task, options_.poll_interval);
  command_options.working_directory = options_.scratch_dir;
  const auto outcome = monitor::run_command_monitored(
      {"/bin/sh", "-c", task.command_line}, command_options);

  ResultMessage result;
  result.task_id = task.task_id;
  result.trace_id = task.trace_id;
  fill_usage(result, outcome.usage);
  switch (outcome.status) {
    case monitor::TaskStatus::kSuccess:
      result.exit_code = outcome.result.exit_code;
      break;
    case monitor::TaskStatus::kLimitExceeded:
      result.exit_code = -1;
      result.exhausted = true;
      result.exhausted_resource = outcome.violated_resource;
      break;
    case monitor::TaskStatus::kException:
    case monitor::TaskStatus::kCrashed:
      result.exit_code = -1;
      break;
  }
  return result;
}

std::string LocalWorker::handle(const std::string& task_wire, const FileSet& files) {
  // Reply in the version the master spoke — the whole of version
  // negotiation: each side answers in the dialect it was addressed in.
  const WireVersion version = detect_version(task_wire);
  return encode(execute(decode_task(task_wire), files), version);
}

std::string LocalWorker::handle_batch(const std::string& batch_wire,
                                      const FileSet& files) {
  const WireVersion version = detect_version(batch_wire);
  std::vector<ResultMessage> results;
  for (auto& task : decode_task_batch(batch_wire)) {
    results.push_back(execute(task, files));
  }
  return encode_batch(results, version);
}

std::pair<TaskMessage, FileSet> make_python_task(
    uint64_t task_id, const std::string& category, const std::string& module_source,
    const std::string& function, const serde::Value& args,
    const alloc::Resources& allocation) {
  if (!valid_token(function)) throw Error("make_python_task: bad function name");
  TaskMessage task;
  task.task_id = task_id;
  task.category = category;
  task.allocation = allocation;

  // Content-addressed: every task of one module names the same cacheable
  // file, so it ships once per link and workers cache one copy, not one per
  // task.
  const std::string module_file =
      strformat("fn-%016llx.py", (unsigned long long)hash64(module_source));
  const std::string args_file = strformat("args-%llu.pkl", (unsigned long long)task_id);
  task.command_line = "lfm-pyrun " + module_file + " " + args_file + " " + function;

  FileSet files;
  files[module_file] = serde::Bytes(module_source.begin(), module_source.end());
  files[args_file] = serde::dumps(args);

  TaskMessage::FileStanza module_stanza;
  module_stanza.name = module_file;
  module_stanza.size_bytes = static_cast<int64_t>(files[module_file].size());
  module_stanza.cacheable = true;  // the function source is reused across tasks
  task.infiles.push_back(module_stanza);
  TaskMessage::FileStanza args_stanza;
  args_stanza.name = args_file;
  args_stanza.size_bytes = static_cast<int64_t>(files[args_file].size());
  task.infiles.push_back(args_stanza);
  return {std::move(task), std::move(files)};
}

}  // namespace lfm::wq
