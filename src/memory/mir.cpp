#include "memory/mir.hpp"

namespace pointacc {

MirContainer::MirContainer(std::size_t num_entries, MirMode mode)
    : entries(num_entries), containerMode(mode)
{
    simAssert(num_entries > 0, "MIR container needs at least one entry");
}

void
MirContainer::setMode(MirMode mode)
{
    simAssert(live.empty(), "cannot switch MIR mode with live tiles");
    containerMode = mode;
}

void
MirContainer::pushBack(const Mir &mir)
{
    simAssert(containerMode == MirMode::Fifo, "pushBack requires Fifo");
    simAssert(!full(), "MIR FIFO overflow");
    live.push_back(mir);
}

Mir
MirContainer::popFront()
{
    simAssert(containerMode == MirMode::Fifo, "popFront requires Fifo");
    simAssert(!live.empty(), "MIR FIFO underflow");
    Mir mir = live.front();
    live.pop_front();
    return mir;
}

void
MirContainer::push(const Mir &mir)
{
    simAssert(containerMode == MirMode::Stack, "push requires Stack");
    simAssert(!full(), "MIR stack overflow");
    live.push_back(mir);
}

Mir
MirContainer::pop()
{
    simAssert(containerMode == MirMode::Stack, "pop requires Stack");
    simAssert(!live.empty(), "MIR stack underflow");
    Mir mir = live.back();
    live.pop_back();
    return mir;
}

Mir &
MirContainer::top()
{
    simAssert(containerMode == MirMode::Stack, "top requires Stack");
    simAssert(!live.empty(), "MIR stack empty");
    return live.back();
}

const Mir &
MirContainer::top() const
{
    simAssert(containerMode == MirMode::Stack, "top requires Stack");
    simAssert(!live.empty(), "MIR stack empty");
    return live.back();
}

} // namespace pointacc
