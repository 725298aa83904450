int Mode;
int Level;

void *Thread1(void *x) {
    if (Level > 10) {
        Level = 0;
    } else if (Mode) {
        Level = 1;
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    Mode = 1;
    pthread_join(t, 0);
    return Level;
}
