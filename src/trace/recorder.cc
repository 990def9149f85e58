#include "trace/recorder.h"

#include "support/log.h"

namespace balign {

void
RecordedTrace::replay(const Program &program, EventSink &sink) const
{
    if (walk(program, options_, sink) != result_)
        panic("RecordedTrace::replay(%s): the re-walk does not reproduce "
              "the recorded walk; replay the walked program",
              program.name().c_str());
}

}  // namespace balign
