#include "core/accelerator.hh"

#include <algorithm>
#include <array>
#include <map>

#include "common/logging.hh"
#include "core/validate.hh"
#include "sim/task_graph.hh"
#include "sim/utilization.hh"
#include "workloads/zoo.hh"

namespace lergan {

namespace {

/** Host-CPU time per weight for the SGD update arithmetic (Sec. V:
 *  "some calculations in CPU"; vectorized on a Xeon E5520-class host). */
constexpr double kCpuNsPerWeight = 0.05;

/**
 * Build-time counter increments of one iteration — per-link-kind flits
 * and controller transitions — counted in plain integers and emitted as
 * an IterationTemplate's counterDeltas.
 */
struct BuildCounters {
    std::array<std::uint64_t, static_cast<std::size_t>(LinkKind::Bus) + 1>
        flits{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(CtrlState::UpdateGen) + 1>
        enters{};
    std::uint64_t transitions = 0;
    std::uint64_t modeSwitches = 0;

    void
    addFlits(LinkKind kind, std::uint64_t count)
    {
        flits[static_cast<std::size_t>(kind)] += count;
    }

    /**
     * The deltas by metric name, name-ordered like a registry snapshot:
     * every link kind (zero included), the transition and mode-switch
     * totals, and each controller state the build entered.
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    deltas() const
    {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (LinkKind kind : {LinkKind::HTree, LinkKind::Horizontal,
                              LinkKind::Vertical, LinkKind::Bypass,
                              LinkKind::Bus}) {
            out.emplace_back(std::string(linkKindMetricKey(kind)) +
                                 ".flits",
                             flits[static_cast<std::size_t>(kind)]);
        }
        out.emplace_back("ctrl.transitions", transitions);
        out.emplace_back("ctrl.mode_switches", modeSwitches);
        for (std::size_t state = 0; state < enters.size(); ++state) {
            if (enters[state] == 0)
                continue;
            out.emplace_back(
                std::string("ctrl.enter.") +
                    ctrlStateMetricKey(static_cast<CtrlState>(state)),
                enters[state]);
        }
        std::sort(out.begin(), out.end());
        return out;
    }
};

/** Charge a route's per-link energies, keyed by wire kind. */
void
chargeRoute(const Topology &topo, const Route &route, Bytes bytes,
            StatSet &stats, BuildCounters &counters)
{
    for (int link_idx : route.links) {
        const TopoLink &link = topo.link(link_idx);
        const char *key = "energy.comm.htree";
        switch (link.kind) {
          case LinkKind::HTree:      key = "energy.comm.htree"; break;
          case LinkKind::Horizontal:
          case LinkKind::Vertical:   key = "energy.comm.added"; break;
          case LinkKind::Bypass:     key = "energy.comm.bypass"; break;
          case LinkKind::Bus:        key = "energy.comm.bus"; break;
        }
        stats.add(key, link.pjPerByte * static_cast<double>(bytes));
        counters.addFlits(link.kind, flitsFor(bytes));
    }
    stats.add("traffic.bytes", static_cast<double>(bytes));
    stats.add("traffic.byte_hops",
              static_cast<double>(bytes) *
                  static_cast<double>(route.links.size()));
}

/**
 * Builds the task DAG of one training iteration against a Machine.
 *
 * All energies are accrued at construction time (they do not depend on
 * the schedule); the graph execution provides timing and contention.
 */
class IterationBuilder
{
  public:
    IterationBuilder(const GanModel &model, const AcceleratorConfig &config,
                     const CompiledGan &compiled, Machine &machine,
                     MemoryController &controller, const TileModel &tile,
                     std::size_t cpu_res)
        : model_(model), config_(config), compiled_(compiled),
          machine_(machine), controller_(controller), tile_(tile),
          cpuRes_(cpu_res), cmode_(config.connection == Connection::ThreeD)
    {
    }

    TaskGraph graph;
    StatSet energy;
    /** Build-time counters; transitions = controller advances issued. */
    BuildCounters counters;

    /** Build the full iteration: discriminator step then generator step. */
    void
    build()
    {
        TaskId barrier = advanceController(kNoTask); // -> TrainDisc
        barrier = discriminatorStep(barrier);
        barrier = advanceController(barrier);        // -> UpdateDisc
        barrier = updateNetwork(barrier, NetRole::Discriminator);
        barrier = advanceController(barrier);        // -> TrainGen
        barrier = generatorStep(barrier);
        barrier = advanceController(barrier);        // -> UpdateGen
        updateNetwork(barrier, NetRole::Generator);
    }

  private:
    const GanModel &model_;
    const AcceleratorConfig &config_;
    const CompiledGan &compiled_;
    Machine &machine_;
    MemoryController &controller_;
    const TileModel &tile_;
    std::size_t cpuRes_;
    bool cmode_;

    const ReRamParams &params() const { return config_.reram; }
    int batch() const { return config_.batchSize; }

    /** Compute resources of an op's tile group. */
    std::vector<std::size_t>
    opResources(const MappedOp &op) const
    {
        // Walk the tiles the allocator actually reserved, not tileCount
        // consecutive tiles from tileStart: when faults retire tiles the
        // allocation skips them, and work must never be scheduled on a
        // killed tile's compute resource (the audit pins this).
        std::vector<std::size_t> resources;
        for (int tile : op.allocation.tiles())
            resources.push_back(machine_.tileComputeRes(op.bank, tile));
        if (resources.empty()) {
            // Fully oversubscribed op with no pinned ranges: fall back
            // to the nominal tile group.
            for (int t = 0; t < op.tileCount; ++t) {
                const int tile =
                    (op.tileStart + t) % params().tilesPerBank;
                resources.push_back(machine_.tileComputeRes(op.bank, tile));
            }
        }
        return resources;
    }

    /** One per-item compute task for @p op. */
    TaskId
    computeTask(const MappedOp &op, const std::vector<TaskId> &deps)
    {
        PicoSeconds duration = tile_.mmvTime(op.cost.waves);
        if (op.perItemWrite) {
            // The per-item gradient operand must be programmed into the
            // crossbars first; parallel across the op's tiles.
            duration += nsToPs(params().weightWriteNsPerElem *
                               static_cast<double>(op.cost.weightElems) /
                               op.tileCount);
            tile_.chargeWeightWrite(energy, op.cost.weightElems);
        }
        tile_.chargeMmv(energy, op.cost.crossbarActivations);
        tile_.chargeBuffer(energy,
                           (op.cost.inputElems + op.cost.outputElems) *
                               params().bytesPerElem);
        if (op.cost.inputElems > op.op.inputData) {
            // Normal reshape materializes the inserted/padding zeros in
            // the consumer's SArray before feeding them (Sec. III-A's
            // storage burden).
            tile_.chargeStorage(energy, 0,
                                (op.cost.inputElems - op.op.inputData) *
                                    params().bytesPerElem);
        }
        energy.add("energy.control", params().controllerPjPerTask);

        const TaskId id =
            graph.addTask({op.op.label, opResources(op), duration});
        for (TaskId dep : deps)
            if (dep != kNoTask)
                graph.addDep(id, dep);
        return id;
    }

    /**
     * Move @p bytes from @p src's tiles to @p dst's tiles.
     *
     * Multi-tile ops stream over parallel leaf wires, so the serialized
     * bytes shrink by the smaller tile-group width; the representative
     * route still charges full energy and models path contention.
     */
    TaskId
    transferTask(const MappedOp &src, const MappedOp &dst, Bytes bytes,
                 TaskId dep, bool charge_storage = false)
    {
        const Route &route =
            machine_.routeTiles(src.bank, src.tileStart, dst.bank,
                                dst.tileStart, cmode_);
        chargeRoute(machine_.topo(), route, bytes, energy, counters);
        if (charge_storage)
            tile_.chargeStorage(energy, bytes, bytes);
        // Parallel per-tile wires (leaf, horizontal, vertical) stripe
        // the stream across the tile groups; a route through a shared
        // single link (bus, port-to-port bypass) cannot.
        bool shared_link = false;
        for (int link_idx : route.links) {
            const LinkKind kind = machine_.topo().link(link_idx).kind;
            if (kind == LinkKind::Bus || kind == LinkKind::Bypass)
                shared_link = true;
        }
        const int spread =
            shared_link ? 1
                        : std::max(1, std::min(src.tileCount,
                                               dst.tileCount));
        const Bytes wire_bytes = (bytes + spread - 1) / spread;
        const TaskId id = graph.addTask(
            {"xfer:" + src.op.label + "->" + dst.op.label,
             machine_.topo().routeResources(route),
             route.transferTime(wire_bytes)});
        if (dep != kNoTask)
            graph.addDep(id, dep);
        return id;
    }

    /** Stream one real training item in from main memory via the bus. */
    TaskId
    loadItemTask(const MappedOp &dst, Bytes bytes, TaskId dep)
    {
        energy.add("energy.comm.bus",
                   params().busPjPerByte * static_cast<double>(bytes));
        counters.addFlits(LinkKind::Bus, flitsFor(bytes));
        tile_.chargeStorage(energy, 0, bytes);
        const PicoSeconds duration = nsToPs(
            params().bankReadNs +
            static_cast<double>(bytes) / (2 * params().linkBytesPerNs));
        const TaskId id =
            graph.addTask({"load:" + dst.op.label, {}, duration});
        if (dep != kNoTask)
            graph.addDep(id, dep);
        return id;
    }

    /** Controller state advance: mode switches become one task. */
    TaskId
    advanceController(TaskId dep)
    {
        const auto switches = controller_.advance();
        ++counters.transitions;
        ++counters.enters[static_cast<std::size_t>(controller_.state())];
        counters.modeSwitches += switches.size();
        energy.add("energy.control",
                   controller_.switchEnergy() *
                       static_cast<double>(switches.size()));
        const PicoSeconds duration =
            switches.empty() ? 0 : controller_.switchTime();
        const TaskId id = graph.addTask(
            {std::string("ctrl:") + ctrlStateName(controller_.state()), {},
             duration});
        if (dep != kNoTask)
            graph.addDep(id, dep);
        return id;
    }

    /** Zero-duration barrier joining @p deps. */
    TaskId
    barrierTask(const char *label, const std::vector<TaskId> &deps)
    {
        const TaskId id = graph.addTask({label, {}, 0});
        for (TaskId dep : deps)
            if (dep != kNoTask)
                graph.addDep(id, dep);
        return id;
    }

    /**
     * Run a forward phase chain for one item.
     *
     * @param entry dependency of the first op (previous segment, or the
     *        transfer landing this item's input).
     * @param out_tasks filled with the per-layer compute tasks.
     * @return the last compute task.
     */
    /**
     * Bytes that actually cross wires into @p op: the useful data only.
     * Under normal reshaping the inserted/padding zeros are materialized
     * locally at the consumer (written to its SArray and streamed from
     * its BArray — charged as storage/buffer energy), not shipped.
     */
    Bytes
    usefulInputBytes(const MappedOp &op) const
    {
        return op.op.inputData * params().bytesPerElem;
    }

    TaskId
    forwardChain(const CompiledPhase &phase, TaskId entry,
                 std::vector<TaskId> *out_tasks)
    {
        TaskId prev = entry;
        const MappedOp *prev_op = nullptr;
        for (const MappedOp &op : phase.ops) {
            TaskId dep = prev;
            if (prev_op) {
                dep = transferTask(*prev_op, op, usefulInputBytes(op),
                                   prev);
            }
            prev = computeTask(op, {dep});
            if (out_tasks)
                out_tasks->push_back(prev);
            prev_op = &op;
        }
        return prev;
    }

    /**
     * Error-backprop chain for one item: each op consumes the previous
     * op's gradient plus the cached forward value of its own layer.
     *
     * @param fwd_phase the forward phase whose caches feed this chain.
     * @param fwd_tasks per-layer forward compute tasks of this item.
     * @param grad_by_layer filled with the task producing nabla-z^l,
     *        keyed by layer index (for the weight-gradient chain).
     */
    TaskId
    errorChain(const CompiledPhase &err_phase,
               const CompiledPhase &fwd_phase,
               const std::vector<TaskId> &fwd_tasks, TaskId entry,
               std::map<std::size_t, TaskId> *grad_by_layer)
    {
        TaskId prev = entry;
        const MappedOp *prev_op = nullptr;
        for (const MappedOp &op : err_phase.ops) {
            // The cached z^l of this layer, written by the forward pass.
            const std::size_t layer = op.op.layerIdx;
            const MappedOp &fwd_op = fwd_phase.ops[layer];
            const TaskId cache = transferTask(
                fwd_op, op,
                fwd_op.op.outputData * params().bytesPerElem,
                fwd_tasks[layer], /*charge_storage=*/true);

            TaskId grad_dep = prev;
            if (prev_op) {
                grad_dep = transferTask(*prev_op, op,
                                        usefulInputBytes(op), prev);
            }
            prev = computeTask(op, {grad_dep, cache});
            if (grad_by_layer) {
                // This op produced nabla-z^(layer-1) for the next op; the
                // gradient *entering* it is nabla-z^layer.
                (*grad_by_layer)[layer] = prev;
            }
            prev_op = &op;
        }
        return prev;
    }

    /**
     * Weight-gradient chain for one item. Layer l needs nabla-z^l (from
     * the error chain, or the loss for the last layer) and the cached
     * activation a^(l-1) from the forward pass.
     */
    std::vector<TaskId>
    weightChain(const CompiledPhase &w_phase,
                const CompiledPhase &fwd_phase,
                const std::vector<TaskId> &fwd_tasks,
                const std::map<std::size_t, TaskId> &grad_producers,
                const MappedOp &loss_op, TaskId loss_task,
                TaskId input_task)
    {
        const std::size_t num_layers = fwd_phase.ops.size();
        std::vector<TaskId> tasks;
        for (const MappedOp &op : w_phase.ops) {
            const std::size_t layer = op.op.layerIdx;
            const LayerSpec &spec = model_.net(op.op.role)[layer];

            // nabla-z^l: produced by the error op of layer l+1, i.e. the
            // error chain's entry for this layer; the last layer takes
            // the loss gradient from wherever it landed (the forward
            // output for D training, the bypass arrival for G training).
            TaskId grad_src_task;
            const MappedOp *grad_src_op;
            if (layer + 1 >= num_layers) {
                grad_src_task = loss_task;
                grad_src_op = &loss_op;
            } else {
                auto it = grad_producers.find(layer + 1);
                LERGAN_ASSERT(it != grad_producers.end(),
                              "missing gradient producer for layer ",
                              layer);
                grad_src_task = it->second;
                grad_src_op = nullptr;
                for (const MappedOp &cand :
                     compiled_.phase(errPhaseOf(w_phase.phase)).ops) {
                    if (cand.op.layerIdx == layer + 1)
                        grad_src_op = &cand;
                }
                LERGAN_ASSERT(grad_src_op, "missing error op");
            }

            // The wires carry the dense useful operands: the cached
            // activation a^(l-1) and the gradient nabla-z^l.
            const Bytes a_bytes = spec.inVolume() * params().bytesPerElem;
            const Bytes g_bytes = spec.outVolume() * params().bytesPerElem;

            const TaskId grad_xfer =
                transferTask(*grad_src_op, op, g_bytes, grad_src_task);

            TaskId act_xfer;
            if (layer == 0) {
                // a^0 is the network input, streamed alongside the item.
                act_xfer = barrierTask("a0", {input_task});
            } else {
                const MappedOp &fwd_prev = fwd_phase.ops[layer - 1];
                act_xfer = transferTask(fwd_prev, op, a_bytes,
                                        fwd_tasks[layer - 1],
                                        /*charge_storage=*/true);
            }
            tasks.push_back(computeTask(op, {grad_xfer, act_xfer}));
        }
        return tasks;
    }

    /** Error phase matching a weight phase. */
    static Phase
    errPhaseOf(Phase weight_phase)
    {
        return weight_phase == Phase::DBwdWeight ? Phase::DBwdErr
                                                 : Phase::GBwdErr;
    }

    /** The Fig. 13a discriminator-training step. */
    TaskId
    discriminatorStep(TaskId entry)
    {
        const CompiledPhase &g_fwd = compiled_.phase(Phase::GFwd);
        const CompiledPhase &d_fwd = compiled_.phase(Phase::DFwd);
        const CompiledPhase &d_err = compiled_.phase(Phase::DBwdErr);
        const CompiledPhase &d_w = compiled_.phase(Phase::DBwdWeight);

        const int m = batch();
        std::vector<TaskId> all_weight_tasks;
        for (int j = 0; j < 2 * m; ++j) {
            // Item source: m generated fakes, m real samples.
            TaskId input_task;
            if (j < m) {
                const TaskId g_out = forwardChain(g_fwd, entry, nullptr);
                input_task = transferTask(
                    g_fwd.ops.back(), d_fwd.ops.front(),
                    usefulInputBytes(d_fwd.ops.front()), g_out);
            } else {
                input_task = loadItemTask(
                    d_fwd.ops.front(),
                    usefulInputBytes(d_fwd.ops.front()), entry);
            }

            std::vector<TaskId> fwd_tasks;
            const TaskId d_out =
                forwardChain(d_fwd, input_task, &fwd_tasks);

            std::map<std::size_t, TaskId> grads;
            errorChain(d_err, d_fwd, fwd_tasks, d_out, &grads);

            const auto w_tasks =
                weightChain(d_w, d_fwd, fwd_tasks, grads,
                            d_fwd.ops.back(), d_out, input_task);
            all_weight_tasks.insert(all_weight_tasks.end(),
                                    w_tasks.begin(), w_tasks.end());
        }
        return barrierTask("D.step.done", all_weight_tasks);
    }

    /** The Fig. 13b generator-training step. */
    TaskId
    generatorStep(TaskId entry)
    {
        const CompiledPhase &g_fwd = compiled_.phase(Phase::GFwd);
        const CompiledPhase &d_fwd = compiled_.phase(Phase::DFwd);
        const CompiledPhase &d_err = compiled_.phase(Phase::DBwdErr);
        const CompiledPhase &g_err = compiled_.phase(Phase::GBwdErr);
        const CompiledPhase &g_w = compiled_.phase(Phase::GBwdWeight);

        std::vector<TaskId> all_weight_tasks;
        for (int i = 0; i < batch(); ++i) {
            std::vector<TaskId> g_fwd_tasks;
            const TaskId g_out =
                forwardChain(g_fwd, entry, &g_fwd_tasks);
            const TaskId into_d = transferTask(
                g_fwd.ops.back(), d_fwd.ops.front(),
                usefulInputBytes(d_fwd.ops.front()), g_out);

            std::vector<TaskId> d_fwd_tasks;
            const TaskId d_out =
                forwardChain(d_fwd, into_d, &d_fwd_tasks);

            // Errors flow back through the (frozen) discriminator...
            std::map<std::size_t, TaskId> d_grads;
            const TaskId d_err_out = errorChain(d_err, d_fwd, d_fwd_tasks,
                                                d_out, &d_grads);

            // ...cross back to the generator CU over the bypass...
            const TaskId across = transferTask(
                d_err.ops.back(), g_err.ops.front(),
                usefulInputBytes(g_err.ops.front()), d_err_out);

            // ...and continue through the generator.
            std::map<std::size_t, TaskId> g_grads;
            errorChain(g_err, g_fwd, g_fwd_tasks, across, &g_grads);

            const auto w_tasks =
                weightChain(g_w, g_fwd, g_fwd_tasks, g_grads,
                            g_err.ops.front(), across,
                            /*input_task=*/entry);
            all_weight_tasks.insert(all_weight_tasks.end(),
                                    w_tasks.begin(), w_tasks.end());
        }
        return barrierTask("G.step.done", all_weight_tasks);
    }

    /** Smode read-out, host update arithmetic and kernel rewrites. */
    TaskId
    updateNetwork(TaskId entry, NetRole role)
    {
        const bool disc = role == NetRole::Discriminator;
        const std::uint64_t update_elems =
            disc ? compiled_.updateElemsD : compiled_.updateElemsG;
        std::uint64_t base_weights = 0;
        for (const LayerSpec &layer : model_.net(role))
            base_weights += layer.numWeights();

        // Gradient read-out to the host over the bus.
        const Bytes grad_bytes = base_weights * params().bytesPerElem;
        energy.add("energy.comm.bus",
                   params().busPjPerByte *
                       static_cast<double>(grad_bytes));
        tile_.chargeStorage(energy, grad_bytes, 0);
        const TaskId read = graph.addTask(
            {disc ? "D.grad.readout" : "G.grad.readout",
             {cpuRes_},
             nsToPs(params().bankReadNs +
                    static_cast<double>(grad_bytes) /
                        (2 * params().linkBytesPerNs))});
        graph.addDep(read, entry);

        // Host-side SGD arithmetic.
        const TaskId cpu = graph.addTask(
            {disc ? "D.update.cpu" : "G.update.cpu",
             {cpuRes_},
             nsToPs(kCpuNsPerWeight * static_cast<double>(base_weights))});
        graph.addDep(cpu, read);

        // Rewrite every stored copy of the network's kernels.
        std::vector<TaskId> writes;
        const Phase phases[2] = {disc ? Phase::DFwd : Phase::GFwd,
                                 disc ? Phase::DBwdErr : Phase::GBwdErr};
        for (Phase phase : phases) {
            for (const MappedOp &op : compiled_.phase(phase).ops) {
                const PicoSeconds duration = nsToPs(
                    params().weightWriteNsPerElem *
                    static_cast<double>(op.cost.weightElems) /
                    op.tileCount);
                tile_.chargeWeightWrite(energy, op.cost.weightElems);
                const TaskId write = graph.addTask(
                    {"update:" + op.op.label, opResources(op), duration});
                graph.addDep(write, cpu);
                writes.push_back(write);
            }
        }
        energy.add("count.update_elems",
                   static_cast<double>(update_elems));
        return barrierTask(disc ? "D.updated" : "G.updated", writes);
    }
};

/** Add the "total.*" keys: per-iteration counters scaled by @p n. */
void
addTotals(TrainingReport &report, int n)
{
    report.stats.set("total.iterations", n);
    report.stats.set("total.time_ms", report.timeMs() * n);
    report.stats.set("total.energy_mj", pjToMj(report.totalEnergyPj()) * n);
}

} // namespace

LerGanAccelerator::LerGanAccelerator(
    const GanModel &model, AcceleratorConfig config,
    std::shared_ptr<const CompiledGan> compiled)
    : LerGanAccelerator(model, std::move(config), std::move(compiled),
                        Prevalidated{})
{
    const ValidationResult validation =
        validateMapping(model_, config_, *compiled_);
    LERGAN_ASSERT(validation.ok(), "invalid mapping for ", model_.name,
                  " on ", config_.label(), ": ",
                  validation.violations.empty()
                      ? ""
                      : validation.violations.front());
}

LerGanAccelerator::LerGanAccelerator(
    const GanModel &model, AcceleratorConfig config,
    std::shared_ptr<const CompiledGan> compiled, Prevalidated)
    : model_(model), config_(std::move(config)),
      compiled_(compiled ? std::move(compiled)
                         : std::make_shared<const CompiledGan>(
                               compileGan(model_, config_))),
      machine_(config_), controller_(config_.reram, config_.cuPairs),
      tileModel_(config_.reram),
      cpuRes_(machine_.pool().create("host.cpu"))
{
}

std::vector<std::string>
LerGanAccelerator::resourceNames() const
{
    const ResourcePool &pool =
        static_cast<const Machine &>(machine_).pool();
    std::vector<std::string> names;
    names.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
        names.push_back(pool[i].name());
    return names;
}

std::shared_ptr<const IterationTemplate>
LerGanAccelerator::makeIterationTemplate()
{
    controller_.reset();

    // The template captures the build-time counter increments
    // (controller transitions, per-link flits) as replayable deltas,
    // whether or not the triggering run has telemetry attached.
    IterationBuilder builder(model_, config_, *compiled_, machine_,
                             controller_, tileModel_, cpuRes_);
    builder.build();

    auto tmpl = std::make_shared<IterationTemplate>();
    tmpl->graph = std::move(builder.graph);
    tmpl->buildEnergy = std::move(builder.energy);
    tmpl->controllerAdvances =
        static_cast<int>(builder.counters.transitions);
    tmpl->counterDeltas = builder.counters.deltas();
    return tmpl;
}

TrainingReport
LerGanAccelerator::trainIterations(int n, MetricsRegistry *metrics,
                                   const IterationTemplate *tmpl,
                                   ExecRecord *record)
{
    LERGAN_ASSERT(n > 0, "need at least one iteration");
    // The rebuild path is replay of a just-built template, so both
    // paths produce byte-identical results by construction.
    std::shared_ptr<const IterationTemplate> own;
    if (!tmpl) {
        own = makeIterationTemplate();
        tmpl = own.get();
    }

    machine_.resetResources();
    // Replay the controller FSM (energy and metrics of the switches are
    // already in the template) so the accelerator ends an iteration in
    // the same state regardless of which path ran it.
    controller_.reset();
    for (int i = 0; i < tmpl->controllerAdvances; ++i)
        controller_.advance();
    if (metrics) {
        for (const auto &[name, delta] : tmpl->counterDeltas)
            metrics->counter(name).add(delta);
    }

    const ExecResult exec = tmpl->graph.execute(
        machine_.pool(), metrics,
        externalScratch_ ? externalScratch_ : &scratch_, record);
    if (metrics) {
        metrics->counter("sim.iterations").add(1);
        if (record)
            metrics->counter("critpath.records").add(1);
        recordPoolMetrics(machine_.pool(), *metrics);
    }
    TrainingReport report =
        assembleReport(*tmpl, exec.makespan, exec.stats);
    addTotals(report, n);
    return report;
}

TrainingReport
LerGanAccelerator::assembleReport(const IterationTemplate &tmpl,
                                  PicoSeconds iteration_time,
                                  const StatSet &exec_stats) const
{
    TrainingReport report;
    report.benchmark = model_.name;
    report.config = config_.label();
    report.iterationTime = iteration_time;
    report.stats = tmpl.buildEnergy;
    report.stats.merge(exec_stats);
    // Snapshot of the energy total at the moment the run produced it;
    // the audit layer compares the prefix sum against this to detect
    // post-run mutation of any component (audit/audit.hh).
    report.stats.set("audit.energy_total_pj",
                     report.stats.sumPrefix("energy."));
    report.crossbarsUsed = compiled_->crossbarsUsed;
    report.compileMs = compiled_->compileMs;
    report.compileMsTraditional = compiled_->compileMsTraditional;
    if (compiled_->faultImpact.active) {
        // Degradation accounting rides the normal stats channel so the
        // sweep exporters and the Monte Carlo aggregator see it without
        // a side channel. Healthy runs emit nothing (byte-identical
        // reports with the fault-unaware simulator).
        const FaultImpact &impact = compiled_->faultImpact;
        report.stats.set("fault.killed_tiles",
                         static_cast<double>(impact.killedTiles));
        report.stats.set("fault.dead_crossbars",
                         static_cast<double>(impact.deadCrossbars));
        report.stats.set("fault.capacity_lost_xbars",
                         static_cast<double>(impact.capacityLostCrossbars));
        report.stats.set("fault.capacity_lost_frac",
                         impact.capacityLostFraction);
        report.stats.set("fault.remapped_xbars",
                         static_cast<double>(impact.remappedCrossbars));
    }
    return report;
}

TrainingReport
LerGanAccelerator::estimateIterations(int n, const IterationTemplate *tmpl,
                                      PicoSeconds per_iteration)
{
    LERGAN_ASSERT(n > 0, "need at least one iteration");
    std::shared_ptr<const IterationTemplate> own;
    if (!tmpl) {
        own = makeIterationTemplate();
        tmpl = own.get();
    }
    // Everything but the makespan is a build-time fact of the template;
    // only the timing channel carries the analytic estimate. The
    // executor's sole stat contribution is the task count, reproduced
    // here so estimated and simulated reports share their stat shape.
    StatSet exec_stats;
    exec_stats.set("sim.tasks",
                   static_cast<double>(tmpl->graph.size()));
    TrainingReport report =
        assembleReport(*tmpl, per_iteration, exec_stats);
    report.stats.set("critpath.estimated", 1.0);
    addTotals(report, n);
    return report;
}

} // namespace lergan
