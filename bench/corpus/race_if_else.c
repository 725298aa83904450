int Flag;
int Result;

void *Thread1(void *x) {
    if (Flag) {
        Result = 1;
    } else {
        Result = 2;
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    Flag = 1;
    pthread_join(t, 0);
    return Result;
}
